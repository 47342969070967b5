# docs_check.cmake — fail on dangling file references in the docs.
#
# Scans README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md,
# bench/PARALLEL_SPEEDUP.md and .claude/skills/verify/SKILL.md for
# tokens that look like repo paths (src/..., bench/..., tests/..., docs/...,
# examples/...) or bench binary names (bench_foo -> bench/foo.cpp) and
# verifies each resolves to a real file, directory, or glob. Run directly:
#
#   cmake -DREPO_ROOT=/path/to/repo -P cmake/docs_check.cmake
#
# or via the `docs_check` CTest / the `docs-check` build target.
#
# Resolution rules, in order, for a path-like token:
#   * tokens starting with "build" are build-tree artifacts — skipped;
#   * a token containing "*" is a glob (docs write `src/game/deviation.*`
#     to mean the .hpp/.cpp pair) — at least one match must exist;
#   * an existing file or directory passes as-is;
#   * an extensionless token tries <token>.cpp, <token>.hpp, then <token>.*
#     (covers module mentions like `src/game/rate_game`);
#   * `bench/bench_foo` and bare `bench_foo` resolve to bench/foo.cpp
#     (the bench CMake prefixes every binary with `bench_`), falling back
#     to bench/bench_foo* for sources that carry the prefix themselves
#     (bench_common.hpp).

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "docs_check: pass -DREPO_ROOT=<repo root>")
endif()

# ROADMAP.md is deliberately out of scope: its open items name benches
# that do not exist yet.
set(_doc_files
  "${REPO_ROOT}/README.md"
  "${REPO_ROOT}/DESIGN.md"
  "${REPO_ROOT}/EXPERIMENTS.md"
  "${REPO_ROOT}/bench/PARALLEL_SPEEDUP.md"
  "${REPO_ROOT}/.claude/skills/verify/SKILL.md")
file(GLOB _extra_docs "${REPO_ROOT}/docs/*.md")
list(APPEND _doc_files ${_extra_docs})

# Returns TRUE in ${out} when the path-like token resolves inside REPO_ROOT.
function(_docs_check_resolve token out)
  set(${out} FALSE PARENT_SCOPE)
  if(token MATCHES "\\*")
    file(GLOB _hits "${REPO_ROOT}/${token}")
    if(_hits)
      set(${out} TRUE PARENT_SCOPE)
    endif()
    return()
  endif()
  if(EXISTS "${REPO_ROOT}/${token}")
    set(${out} TRUE PARENT_SCOPE)
    return()
  endif()
  get_filename_component(_leaf "${token}" NAME)
  if(NOT _leaf MATCHES "\\.")  # extensionless: a module or binary mention
    foreach(_ext ".cpp" ".hpp")
      if(EXISTS "${REPO_ROOT}/${token}${_ext}")
        set(${out} TRUE PARENT_SCOPE)
        return()
      endif()
    endforeach()
    file(GLOB _hits "${REPO_ROOT}/${token}.*")
    if(_hits)
      set(${out} TRUE PARENT_SCOPE)
      return()
    endif()
    if(token MATCHES "^bench/bench_(.+)$")
      if(EXISTS "${REPO_ROOT}/bench/${CMAKE_MATCH_1}.cpp")
        set(${out} TRUE PARENT_SCOPE)
        return()
      endif()
    endif()
  endif()
endfunction()

set(_dangling "")
set(_checked 0)
foreach(_doc IN LISTS _doc_files)
  file(STRINGS "${_doc}" _lines)
  get_filename_component(_doc_name "${_doc}" NAME)
  set(_lineno 0)
  foreach(_line IN LISTS _lines)
    math(EXPR _lineno "${_lineno} + 1")
    # Anything not in the path charset (spaces, backticks, parens, commas)
    # delimits tokens, so markdown punctuation is stripped for free.
    string(REGEX MATCHALL "[A-Za-z0-9_.*/-]+" _tokens "${_line}")
    foreach(_tok IN LISTS _tokens)
      string(REGEX REPLACE "\\.+$" "" _tok "${_tok}")  # sentence-final dots
      if(_tok MATCHES "^build")
        continue()
      endif()
      set(_is_ref FALSE)
      if(_tok MATCHES "^(src|bench|tests|docs|examples)/[A-Za-z0-9_.*/-]+$")
        set(_is_ref TRUE)
      elseif(_tok MATCHES "^bench_[a-z0-9_]+$")
        # A bench binary name outside a path context.
        string(REGEX REPLACE "^bench_" "" _stem "${_tok}")
        if(EXISTS "${REPO_ROOT}/bench/${_stem}.cpp")
          math(EXPR _checked "${_checked} + 1")
          continue()
        endif()
        file(GLOB _hits "${REPO_ROOT}/bench/${_tok}*")
        if(_hits)
          math(EXPR _checked "${_checked} + 1")
          continue()
        endif()
        list(APPEND _dangling "${_doc_name}:${_lineno}: ${_tok}")
        continue()
      endif()
      if(NOT _is_ref)
        continue()
      endif()
      math(EXPR _checked "${_checked} + 1")
      _docs_check_resolve("${_tok}" _ok)
      if(NOT _ok)
        list(APPEND _dangling "${_doc_name}:${_lineno}: ${_tok}")
      endif()
    endforeach()
  endforeach()
endforeach()

if(_dangling)
  list(REMOVE_DUPLICATES _dangling)
  list(JOIN _dangling "\n  " _report)
  message(FATAL_ERROR "docs_check: dangling file references:\n  ${_report}")
endif()
message(STATUS "docs_check: ${_checked} path references resolve")
