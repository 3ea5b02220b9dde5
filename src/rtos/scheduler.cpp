#include "rtos/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace evm::rtos {

Scheduler::Scheduler(sim::Simulator& sim) : sim_(sim), epoch_(sim.now()) {}

TaskId Scheduler::add_task(TaskParams params, std::function<void()> body,
                           std::function<util::Duration()> execution_time) {
  const TaskId id = next_id_++;
  Tcb tcb;
  tcb.id = id;
  tcb.params = std::move(params);
  tcb.body = std::move(body);
  tcb.execution_time = std::move(execution_time);
  tasks_[id] = std::move(tcb);
  return id;
}

util::Status Scheduler::activate(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return util::Status::not_found("no such task");
  auto& state = active_[id];
  if (state.releasing) return util::Status::already_exists("task already active");
  state.releasing = true;
  it->second.state = TaskState::kFinished;  // waiting for first release
  state.release_event = sim_.schedule_after(
      it->second.params.phase, [this, id] { release_job(id); });
  return util::Status::ok();
}

util::Status Scheduler::deactivate(TaskId id) {
  auto it = active_.find(id);
  if (it == active_.end() || !it->second.releasing) {
    return util::Status::failed_precondition("task not active");
  }
  sim_.cancel(it->second.release_event);
  abort_job(id);
  active_.erase(id);
  if (Tcb* tcb = task(id)) tcb->state = TaskState::kDormant;
  return util::Status::ok();
}

Tcb* Scheduler::task(TaskId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

const Tcb* Scheduler::task(TaskId id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

std::vector<TaskId> Scheduler::task_ids() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, tcb] : tasks_) {
    (void)tcb;
    ids.push_back(id);
  }
  return ids;
}

double Scheduler::utilization() const {
  double total = 0.0;
  for (const auto& [id, state] : active_) {
    if (!state.releasing) continue;
    const Tcb* tcb = task(id);
    if (tcb != nullptr) total += tcb->params.utilization();
  }
  return total;
}

double Scheduler::measured_utilization() const {
  util::Duration busy = busy_time_;
  if (running_.has_value()) busy += sim_.now() - segment_start_;
  const util::Duration span = sim_.now() - epoch_;
  if (!span.is_positive()) return 0.0;
  return static_cast<double>(busy.ns()) / static_cast<double>(span.ns());
}

std::optional<TaskId> Scheduler::running() const {
  if (!running_.has_value()) return std::nullopt;
  return running_->task;
}

bool Scheduler::is_active(TaskId id) const {
  auto it = active_.find(id);
  return it != active_.end() && it->second.releasing;
}

void Scheduler::release_job(TaskId id) {
  auto state_it = active_.find(id);
  if (state_it == active_.end() || !state_it->second.releasing) return;
  Tcb* tcb = task(id);
  assert(tcb != nullptr);

  // Overrun policy: if the previous job is still pending at its successor's
  // release, it has missed its deadline; abort it (skip-next) so a single
  // overloaded task cannot wedge the node.
  if (state_it->second.job_pending) {
    ++tcb->stats.deadline_misses;
    abort_job(id);
  }

  ++tcb->stats.releases;
  Job job;
  job.task = id;
  job.release = sim_.now();
  job.remaining = tcb->execution_time ? tcb->execution_time() : tcb->params.wcet;
  if (!job.remaining.is_positive()) job.remaining = util::Duration::nanos(1);
  state_it->second.job_pending = true;
  state_it->second.job = job;
  tcb->state = TaskState::kReady;
  enqueue_ready(job);
  schedule_next_release(id);
  dispatch();
}

void Scheduler::schedule_next_release(TaskId id) {
  auto it = active_.find(id);
  if (it == active_.end() || !it->second.releasing) return;
  const Tcb* tcb = task(id);
  it->second.release_event =
      sim_.schedule_after(tcb->params.period, [this, id] { release_job(id); });
}

void Scheduler::enqueue_ready(Job job) { ready_.push_back(std::move(job)); }

void Scheduler::dispatch() {
  // Select the highest-priority ready job (lowest number, FIFO tie-break).
  auto best = ready_.end();
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if (best == ready_.end() ||
        task(it->task)->params.priority < task(best->task)->params.priority) {
      best = it;
    }
  }

  if (running_.has_value()) {
    if (best == ready_.end()) return;
    if (task(best->task)->params.priority >= task(running_->task)->params.priority) {
      return;  // current job keeps the CPU
    }
    preempt_running();
    // preempt_running pushed the old job onto ready_; re-select.
    dispatch();
    return;
  }

  if (best == ready_.end()) return;
  running_ = *best;
  ready_.erase(best);
  task(running_->task)->state = TaskState::kRunning;
  start_segment();
}

void Scheduler::start_segment() {
  assert(running_.has_value());
  segment_start_ = sim_.now();
  const std::uint64_t generation = ++segment_generation_;
  segment_event_ = sim_.schedule_after(
      running_->remaining, [this, generation] { end_segment(generation); });
}

void Scheduler::end_segment(std::uint64_t generation) {
  if (generation != segment_generation_ || !running_.has_value()) return;
  // A segment runs the job's whole remaining demand; only preemption or an
  // abort cuts it short, and both invalidate this event.
  busy_time_ += sim_.now() - segment_start_;
  Job done = *running_;
  running_.reset();
  complete_job(done);
  dispatch();
}

void Scheduler::preempt_running() {
  assert(running_.has_value());
  Tcb* tcb = task(running_->task);
  const util::Duration executed = sim_.now() - segment_start_;
  busy_time_ += executed;
  running_->remaining -= executed;
  ++segment_generation_;  // invalidate the pending end-of-segment event
  sim_.cancel(segment_event_);
  ++tcb->stats.preemptions;
  tcb->state = TaskState::kReady;
  enqueue_ready(*running_);
  running_.reset();
}

void Scheduler::abort_job(TaskId id) {
  if (running_.has_value() && running_->task == id) {
    const util::Duration executed = sim_.now() - segment_start_;
    busy_time_ += executed;
    ++segment_generation_;
    sim_.cancel(segment_event_);
    running_.reset();
    dispatch();
  }
  std::erase_if(ready_, [id](const Job& j) { return j.task == id; });
  auto it = active_.find(id);
  if (it != active_.end()) it->second.job_pending = false;
}

void Scheduler::complete_job(Job job) {
  Tcb* tcb = task(job.task);
  auto state_it = active_.find(job.task);
  if (state_it != active_.end()) state_it->second.job_pending = false;

  const util::Duration response = sim_.now() - job.release;
  ++tcb->stats.completions;
  tcb->stats.total_response += response;
  tcb->stats.worst_response = std::max(tcb->stats.worst_response, response);
  if (response > tcb->params.effective_deadline()) {
    ++tcb->stats.deadline_misses;
  }
  tcb->state = TaskState::kFinished;
  if (tcb->body) tcb->body();
}

}  // namespace evm::rtos
