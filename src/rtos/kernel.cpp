#include "rtos/kernel.hpp"

namespace evm::rtos {

std::vector<std::uint8_t> TaskSnapshot::encode() const {
  util::ByteWriter w;
  w.str(params.name);
  w.i64(params.period.ns());
  w.i64(params.wcet.ns());
  w.i64(params.deadline.ns());
  w.i64(params.phase.ns());
  w.u8(params.priority);
  w.blob(stack);
  w.blob(data);
  w.u32(registers.pc);
  w.u32(registers.sp);
  w.bytes(std::span<const std::uint8_t>(registers.gp.data(), registers.gp.size()));
  return w.take();
}

bool TaskSnapshot::decode(std::span<const std::uint8_t> bytes, TaskSnapshot& out) {
  util::ByteReader r(bytes);
  out.params.name = r.str();
  out.params.period = util::Duration(r.i64());
  out.params.wcet = util::Duration(r.i64());
  out.params.deadline = util::Duration(r.i64());
  out.params.phase = util::Duration(r.i64());
  out.params.priority = r.u8();
  out.stack = r.blob();
  out.data = r.blob();
  out.registers.pc = r.u32();
  out.registers.sp = r.u32();
  auto gp = r.bytes(out.registers.gp.size());
  if (gp.size() == out.registers.gp.size()) {
    std::copy(gp.begin(), gp.end(), out.registers.gp.begin());
  }
  return r.ok();
}

Kernel::Kernel(sim::Simulator& sim) : scheduler_(sim) {}

AnalysisResult Kernel::analyze_with(const TaskParams* extra) const {
  std::vector<AnalysisTask> tasks;
  for (TaskId id : scheduler_.task_ids()) {
    const Tcb* tcb = scheduler_.task(id);
    tasks.push_back(AnalysisTask{tcb->params.wcet, tcb->params.period,
                                 tcb->params.deadline, tcb->params.priority});
  }
  if (extra != nullptr) {
    tasks.push_back(AnalysisTask{extra->wcet, extra->period, extra->deadline,
                                 extra->priority});
  }
  return response_time_analysis(tasks);
}

bool Kernel::admissible(const TaskParams& candidate) const {
  return analyze_with(&candidate).schedulable;
}

util::Result<TaskId> Kernel::admit_task(TaskParams params,
                                        std::function<void()> body,
                                        std::function<util::Duration()> execution_time,
                                        std::size_t stack_bytes,
                                        std::size_t data_bytes) {
  if (!params.period.is_positive() || !params.wcet.is_positive()) {
    return util::Status::invalid_argument("task period/wcet must be positive");
  }
  if (ram_used() + stack_bytes + data_bytes > ram_capacity()) {
    return util::Status::resource_exhausted("RAM budget exceeded");
  }
  if (!admissible(params)) {
    return util::Status::resource_exhausted(
        "task set would be unschedulable with '" + params.name + "'");
  }
  const TaskId id =
      scheduler_.add_task(params, std::move(body), std::move(execution_time));
  Tcb* tcb = scheduler_.task(id);
  tcb->stack.resize(stack_bytes, 0);
  tcb->data.resize(data_bytes, 0);
  return id;
}

util::Status Kernel::start_task(TaskId id) { return scheduler_.activate(id); }

util::Status Kernel::stop_task(TaskId id) { return scheduler_.deactivate(id); }

util::Result<TaskSnapshot> Kernel::snapshot(TaskId id, bool freeze) {
  Tcb* tcb = scheduler_.task(id);
  if (tcb == nullptr) return util::Status::not_found("no such task");
  if (freeze && scheduler_.is_active(id)) {
    (void)scheduler_.deactivate(id);
  }
  TaskSnapshot snap;
  snap.params = tcb->params;
  snap.stack = tcb->stack;
  snap.data = tcb->data;
  snap.registers = tcb->registers;
  return snap;
}

std::size_t Kernel::ram_used() const {
  std::size_t used = 0;
  for (TaskId id : scheduler_.task_ids()) {
    const Tcb* tcb = scheduler_.task(id);
    used += tcb->stack.size() + tcb->data.size();
  }
  return used;
}

}  // namespace evm::rtos
