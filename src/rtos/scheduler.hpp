// Fixed-priority fully preemptive scheduler over virtual time, mirroring
// nano-RK. Job execution is simulated as virtual-time quanta, so preemption
// behaviour and response times are exact and deterministic — a prerequisite
// for testing the EVM's schedulability-gated task admission and migration.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "rtos/task.hpp"
#include "sim/simulator.hpp"
#include "util/status.hpp"

namespace evm::rtos {

class Scheduler {
 public:
  explicit Scheduler(sim::Simulator& sim);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a TCB in the dormant state. `body` runs at each job completion.
  TaskId add_task(TaskParams params, std::function<void()> body = {},
                  std::function<util::Duration()> execution_time = {});

  /// Begin periodic releases (first release after params.phase).
  util::Status activate(TaskId id);
  /// Stop releases and abort the current job; TCB goes dormant.
  util::Status deactivate(TaskId id);

  Tcb* task(TaskId id);
  const Tcb* task(TaskId id) const;
  std::vector<TaskId> task_ids() const;
  std::size_t task_count() const { return tasks_.size(); }

  /// Sum of wcet/period over active tasks.
  double utilization() const;
  /// Fraction of time the CPU was busy since construction (measured).
  double measured_utilization() const;

  /// Currently running task, if any.
  std::optional<TaskId> running() const;

  /// True while the task's periodic releases are enabled.
  bool is_active(TaskId id) const;

 private:
  struct Job {
    TaskId task = kInvalidTask;
    util::TimePoint release;
    util::Duration remaining = util::Duration::zero();
  };
  struct ActiveTask {
    bool releasing = false;       // periodic releases enabled
    bool job_pending = false;     // a job exists (ready/running)
    Job job;
    sim::EventHandle release_event;
  };

  void release_job(TaskId id);
  void schedule_next_release(TaskId id);
  void enqueue_ready(Job job);
  void dispatch();
  void start_segment();
  void end_segment(std::uint64_t generation);
  void preempt_running();
  void abort_job(TaskId id);
  void complete_job(Job job);

  sim::Simulator& sim_;
  std::map<TaskId, Tcb> tasks_;
  std::map<TaskId, ActiveTask> active_;
  std::vector<Job> ready_;
  std::optional<Job> running_;
  util::TimePoint segment_start_;
  sim::EventHandle segment_event_;
  std::uint64_t segment_generation_ = 0;
  TaskId next_id_ = 1;
  util::Duration busy_time_ = util::Duration::zero();
  util::TimePoint epoch_;
};

}  // namespace evm::rtos
