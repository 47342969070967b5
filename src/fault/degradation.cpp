#include "fault/degradation.hpp"

#include <algorithm>
#include <sstream>

#include "fault/fault_injector.hpp"

namespace smac::fault {

bool DegradationReport::clean() const noexcept {
  return degraded_stages == 0 && failed_stages == 0 && reused_stages == 0 &&
         crash_events == 0 && join_events == 0 && lost_observations == 0 &&
         noisy_observations == 0;
}

void DegradationReport::record_run(int stages_played,
                                   const FaultInjector* injector) {
  stages = stages_played;
  if (!injector) return;
  crash_events = injector->crash_events();
  join_events = injector->join_events();
  lost_observations = injector->lost_observations();
  noisy_observations = injector->noisy_observations();
  last_fault_stage = injector->last_fault_stage();
}

void DegradationReport::merge(const DegradationReport& other) {
  stages += other.stages;
  degraded_stages += other.degraded_stages;
  failed_stages += other.failed_stages;
  reused_stages += other.reused_stages;
  crash_events += other.crash_events;
  join_events += other.join_events;
  lost_observations += other.lost_observations;
  noisy_observations += other.noisy_observations;
  last_fault_stage = std::max(last_fault_stage, other.last_fault_stage);
  incidents.insert(incidents.end(), other.incidents.begin(),
                   other.incidents.end());
}

std::string DegradationReport::summary() const {
  std::ostringstream os;
  os << stages << " stages: "
     << (stages - degraded_stages - failed_stages) << " converged, "
     << degraded_stages << " degraded, " << failed_stages << " failed ("
     << reused_stages << " reused)";
  if (crash_events || join_events) {
    os << "; " << crash_events << " crashes, " << join_events << " joins";
  }
  if (lost_observations || noisy_observations) {
    os << "; " << lost_observations << " lost / " << noisy_observations
       << " noisy observations";
  }
  if (last_fault_stage >= 0) {
    os << "; last fault at stage " << last_fault_stage;
  }
  return os.str();
}

}  // namespace smac::fault
