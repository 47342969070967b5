# Golden-artifact check: run one bench in a fresh scratch directory and
# compare its deterministic output with a committed copy.
#
#   cmake -DBENCH=<bench binary> -DARGS="<arguments>" -DGOLDEN=<committed file>
#         -DWORK_DIR=<scratch dir> [-DOUTPUT=<file the bench writes>]
#         -P cmake/golden_check.cmake
#
# ARGS is split like a shell command line. Without OUTPUT the bench's
# stdout is compared. The `replication jobs = N` line is deleted first, so
# one golden serves every --jobs value. On a mismatch the normalized
# output stays in WORK_DIR and the check fails, printing the diff command.
foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "golden_check: ${BENCH} ${ARGS} exited ${status}")
endif()

if(DEFINED OUTPUT AND NOT OUTPUT STREQUAL "")
  set(produced "${WORK_DIR}/${OUTPUT}")
else()
  set(produced "${WORK_DIR}/stdout.txt")
endif()
if(NOT EXISTS "${produced}")
  message(FATAL_ERROR "golden_check: ${BENCH} did not write ${produced}")
endif()
file(READ "${produced}" actual)
string(REGEX REPLACE "replication jobs = [0-9]+[^\n]*\n" "" actual
       "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  set(normalized "${WORK_DIR}/normalized.txt")
  file(WRITE "${normalized}" "${actual}")
  message(FATAL_ERROR "golden_check: output differs from ${GOLDEN}\n"
          "  diff ${GOLDEN} ${normalized}")
endif()
