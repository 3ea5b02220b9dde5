#include "core/service.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace evm::core {

namespace {
constexpr const char* kTag = "evm";

/// Wrap-around-safe beacon sequence comparison (u16, one bump per
/// head_beacon_period: half the space is 32768 beats, ~9 hours at 1 s, far
/// beyond any liveness window).
bool seq_advanced(std::uint16_t seq, std::uint16_t last) {
  return static_cast<std::int16_t>(seq - last) > 0;
}

/// WCET of the evm-beacon task; its body runs this long after each release.
constexpr util::Duration kBeaconWcet = util::Duration::micros(200);
/// First-release offset of a watchdog node's evm-beacon task: ~100 years,
/// past any run, so the task holds its kernel share without ever releasing.
constexpr util::Duration kParkedPhase = util::Duration::seconds(100LL * 365 * 86400);
}  // namespace

EvmService::EvmService(Node& node, VcDescriptor descriptor, FailoverPolicy policy)
    : node_(node),
      descriptor_(std::move(descriptor)),
      migration_(node.simulator(), node.router()),
      guard_(descriptor_, node.id()),
      arbiter_(node.id(), policy),
      head_id_(descriptor_.head) {
  node_.router().set_receive_handler(
      [this](const net::Datagram& d) { on_datagram(d); });
  node_.router().set_beacon_observer(
      [this](const net::BeaconTag& tag) { on_beacon_tag(tag); });

  migration_.set_capability_checker([this](const MigrationOfferMsg& offer) {
    const double headroom = 1.0 - node_.kernel().utilization();
    const std::size_t ram_free = node_.kernel().ram_capacity() - node_.kernel().ram_used();
    return offer.required_utilization <= headroom + 1e-9 &&
           offer.required_ram <= ram_free;
  });
  migration_.set_payload_handler(
      [this](const MigrationOfferMsg& meta, const std::vector<std::uint8_t>& payload) {
        return accept_migrated_function(meta, payload);
      });
  node_.set_liveness_observer([this] { on_liveness_change(); });
  topology_listener_ = node_.topology().add_listener([this] {
    if (watchdog_ == Watchdog::kAsleep && !node_.failed()) arm_watchdog();
  });
}

EvmService::~EvmService() {
  node_.topology().remove_listener(topology_listener_);
  node_.simulator().cancel(watchdog_event_);
}

util::Status EvmService::start() {
  if (started_) return util::Status::failed_precondition("service already started");
  started_ = true;
  node_.start();
  last_beacon_ = node_.simulator().now();
  beacon_origin_ = last_beacon_;

  // Head liveness: the head beacons; every member supervises the beacon and
  // runs the deterministic succession when it goes silent. Members start on
  // the watchdog (see service.hpp); a replica going live below switches to
  // the task at once.
  const bool watchdog = !is_head();
  rtos::TaskParams beacon_params;
  beacon_params.name = "evm-beacon";
  beacon_params.period = arbiter_.policy().head_beacon_period;
  beacon_params.wcet = kBeaconWcet;
  beacon_params.priority = 1;
  if (watchdog) beacon_params.phase = kParkedPhase;
  auto beacon = node_.kernel().admit_task(beacon_params, [this] {
    if (!is_head()) {
      check_head_liveness();
      return;
    }
    // Beat: bump the sequence, stamp it into every frame this node sends
    // from now on (originations and relays alike) and broadcast the explicit
    // beacon. A tree relay that sent tagged frames of its own since the
    // previous probe skips forwarding it (Router::on_packet).
    ++beacon_seq_sent_;
    node_.router().set_beacon_tag({node_.id(), beacon_seq_sent_});
    last_beacon_ = node_.simulator().now();
    HeadBeaconMsg msg;
    msg.vc = descriptor_.id;
    msg.head = node_.id();
    (void)node_.router().send_beacon(
        static_cast<std::uint8_t>(MsgType::kHeadBeacon), msg.encode());
    for (const auto& decision : arbiter_.on_beacon_tick(node_.simulator().now())) {
      apply(decision);
    }
  });
  if (beacon) {
    beacon_task_ = *beacon;
    (void)node_.kernel().start_task(beacon_task_);
    if (watchdog) arm_watchdog();
  }

  for (const auto& [fid, function] : descriptor_.functions) {
    arbiter_.start_function(fid, node_.simulator().now());
    auto rit = descriptor_.replicas.find(fid);
    if (is_head() && rit != descriptor_.replicas.end()) {
      for (net::NodeId replica : rit->second) {
        arbiter_.set_mode(fid, replica, descriptor_.initial_mode(fid, replica));
      }
    }
    const ControllerMode initial = descriptor_.initial_mode(fid, node_.id());
    // Not a replica of this function on this node — nothing to install,
    // unless migration later brings it here.
    if (initial == ControllerMode::kDormant) continue;
    util::Status status = install_function(function, initial, nullptr);
    if (!status) return status;
  }
  return util::Status::ok();
}

util::Status EvmService::install_function(const ControlFunction& function,
                                          ControllerMode initial_mode,
                                          const std::vector<std::uint8_t>* slot_image) {
  const FunctionId fid = function.id;
  auto [it, inserted] = functions_.try_emplace(fid);
  FunctionRuntime& rt = it->second;

  if (inserted) {
    vm::Environment env;
    env.read_sensor = [this, fid](std::uint8_t channel) {
      if (node_.has_sensor(channel)) return node_.read_sensor(channel);
      auto sit = streams_.find(channel);
      return sit == streams_.end() ? 0.0 : sit->second;
    };
    env.write_actuator = [this, fid](std::uint8_t channel, double value) {
      (void)channel;
      auto fit = functions_.find(fid);
      if (fit != functions_.end()) fit->second.computed = value;
    };
    env.send = [this](std::uint8_t stream, double value) {
      publish_sensor(stream, value);
    };
    env.now_seconds = [this] { return node_.simulator().now().to_seconds(); };
    rt.interpreter = std::make_unique<vm::Interpreter>(std::move(env));

    // Attestation gate: code entering the node must pass (paper op. 8).
    const auto report = vm::attest(function.algorithm, rt.interpreter.get());
    if (!report.passed()) {
      functions_.erase(fid);
      return util::Status::data_loss("capsule for '" + function.name +
                                     "' failed attestation: " + report.failure);
    }
  }

  // The slots load before admission: an admitted task cannot be taken back.
  if (slot_image != nullptr) {
    util::Status status = rt.interpreter->load_slots(*slot_image);
    if (!status) {
      if (inserted) functions_.erase(fid);
      return status;
    }
  }

  if (inserted) {
    auto admitted = node_.kernel().admit_task(
        function.task, [this, fid] { run_control_cycle(fid); }, {},
        /*stack_bytes=*/256, /*data_bytes=*/vm::Interpreter::kSlots * 8);
    if (!admitted) {
      functions_.erase(fid);
      return admitted.status();
    }
    rt.task = *admitted;
  }

  rt.mode = ControllerMode::kDormant;  // set_mode below performs activation
  return set_mode(fid, initial_mode);
}

ControllerMode EvmService::mode(FunctionId function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? ControllerMode::kDormant : it->second.mode;
}

double EvmService::last_output(FunctionId function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? 0.0 : it->second.last_output;
}

std::uint32_t EvmService::cycles_run(FunctionId function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? 0 : it->second.cycle;
}

double EvmService::stream_value(std::uint8_t stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0.0 : it->second;
}

bool EvmService::has_stream(std::uint8_t stream) const {
  return streams_.count(stream) > 0;
}

void EvmService::publish_sensor(std::uint8_t stream, double value) {
  streams_[stream] = value;  // local cache (loopback)
  SensorDataMsg msg;
  msg.vc = descriptor_.id;
  msg.stream = stream;
  msg.value = value;
  msg.timestamp_ns = node_.simulator().now().ns();
  msg.seq = ++stream_seq_[stream];
  (void)node_.router().send(net::kBroadcast,
                            static_cast<std::uint8_t>(MsgType::kSensorData),
                            msg.encode());
}

util::Status EvmService::add_sensor_publisher(std::uint8_t stream,
                                              std::uint8_t channel,
                                              util::Duration period,
                                              rtos::Priority priority) {
  rtos::TaskParams params;
  params.name = "pub_s" + std::to_string(stream);
  params.period = period;
  params.wcet = util::Duration::micros(500);
  params.priority = priority;
  auto id = node_.kernel().admit_task(params, [this, stream, channel] {
    publish_sensor(stream, node_.read_sensor(channel));
  });
  if (!id) return id.status();
  run_beacon_task();
  return node_.kernel().start_task(*id);
}

util::Status EvmService::seed_function_slot(FunctionId function, std::size_t slot,
                                            double value) {
  auto it = functions_.find(function);
  if (it == functions_.end() || !it->second.interpreter) {
    return util::Status::not_found("function not installed on this node");
  }
  if (slot >= vm::Interpreter::kSlots) {
    return util::Status::invalid_argument("slot out of range");
  }
  it->second.interpreter->set_slot(slot, value);
  return util::Status::ok();
}

double EvmService::function_slot(FunctionId function, std::size_t slot) const {
  auto it = functions_.find(function);
  if (it == functions_.end() || !it->second.interpreter ||
      slot >= vm::Interpreter::kSlots) {
    return 0.0;
  }
  return it->second.interpreter->slot(slot);
}

void EvmService::inject_output_fault(FunctionId function, double wrong_value) {
  auto it = functions_.find(function);
  if (it != functions_.end()) it->second.fault_override = wrong_value;
}

void EvmService::clear_output_fault(FunctionId function) {
  auto it = functions_.find(function);
  if (it != functions_.end()) it->second.fault_override.reset();
}

util::Status EvmService::set_mode(FunctionId function, ControllerMode mode) {
  auto it = functions_.find(function);
  if (it == functions_.end()) {
    return util::Status::not_found("function not installed on this node");
  }
  FunctionRuntime& rt = it->second;
  if (rt.mode == mode) return util::Status::ok();

  const bool was_running = rt.mode != ControllerMode::kDormant;
  const bool will_run = mode != ControllerMode::kDormant;
  if (was_running && !will_run) {
    (void)node_.kernel().stop_task(rt.task);
  } else if (!was_running && will_run) {
    run_beacon_task();
    util::Status status = node_.kernel().start_task(rt.task);
    if (!status) return status;
  }

  EVM_INFO(kTag, "node " << node_.id() << " function " << function << ": "
                         << to_string(rt.mode) << " -> " << to_string(mode));
  rt.mode = mode;
  // Mirror own role locally so that, should this node ever assume headship,
  // its arbitration table already covers itself.
  arbiter_.set_mode(function, node_.id(), mode);
  if (mode == ControllerMode::kActive) {
    // An Active replica observes nobody; reset its observer state.
    rt.monitors.clear();
    rt.observed_active.reset();
    rt.observed_output.reset();
  }
  if (on_mode_change_) on_mode_change_(function, mode);
  return util::Status::ok();
}

void EvmService::run_control_cycle(FunctionId function) {
  auto it = functions_.find(function);
  if (it == functions_.end()) return;
  FunctionRuntime& rt = it->second;
  if (rt.mode == ControllerMode::kDormant) return;

  const auto fit = descriptor_.functions.find(function);
  if (fit == descriptor_.functions.end()) return;
  const ControlFunction& def = fit->second;

  util::Status run_status = rt.interpreter->run(def.algorithm);
  if (!run_status) {
    EVM_WARN(kTag, "node " << node_.id() << " function " << function
                           << " VM fault: " << run_status.to_string());
    return;
  }

  double output = rt.computed;
  if (rt.fault_override.has_value()) output = *rt.fault_override;
  rt.last_output = output;
  ++rt.cycle;

  if (rt.mode == ControllerMode::kActive) {
    ActuationMsg act;
    act.vc = descriptor_.id;
    act.function = function;
    act.channel = def.actuator_channel;
    act.value = output;
    act.source = node_.id();
    act.cycle = rt.cycle;
    (void)node_.router().send(net::kBroadcast,
                              static_cast<std::uint8_t>(MsgType::kActuation),
                              act.encode());
    // Local actuator binding (a controller co-located with its valve).
    (void)node_.write_actuator(def.actuator_channel, output);
  }

  HeartbeatMsg hb;
  hb.vc = descriptor_.id;
  hb.function = function;
  hb.node = node_.id();
  hb.mode = rt.mode;
  hb.output = output;
  hb.cycle = rt.cycle;
  hb.epoch = rt.last_epoch;
  (void)node_.router().send(net::kBroadcast,
                            static_cast<std::uint8_t>(MsgType::kHeartbeat),
                            hb.encode());

  if (rt.mode == ControllerMode::kBackup) {
    run_health_checks(function, rt);
  }
}

void EvmService::run_health_checks(FunctionId function, FunctionRuntime& rt) {
  const auto fit = descriptor_.functions.find(function);
  if (fit == descriptor_.functions.end()) return;
  const ControlFunction& def = fit->second;

  net::NodeId subject = net::kInvalidNode;
  if (rt.observed_active.has_value()) {
    subject = *rt.observed_active;
  } else if (auto primary = descriptor_.initial_primary(function)) {
    subject = *primary;
  }
  if (subject == net::kInvalidNode || subject == node_.id()) return;

  auto [mit, unused] = rt.monitors.try_emplace(subject, def, subject);
  HealthMonitor& monitor = mit->second;

  std::optional<HealthVerdict> verdict;
  if (rt.heard_since_last_cycle && rt.observed_output.has_value()) {
    verdict = monitor.observe(rt.cycle, *rt.observed_output, rt.computed);
    rt.heard_since_last_cycle = false;
  } else {
    verdict = monitor.observe_silence();
  }
  if (!verdict.has_value()) return;

  FaultReportMsg report;
  report.vc = descriptor_.id;
  report.function = function;
  report.suspect = subject;
  report.reporter = node_.id();
  report.reason = verdict->reason;
  report.observed = verdict->observed;
  report.expected = verdict->expected;
  report.evidence = verdict->evidence;
  ++fault_reports_sent_;
  EVM_INFO(kTag, "node " << node_.id() << " reports fault on node " << subject
                         << " (function " << function << ", evidence "
                         << verdict->evidence << ")");
  if (trace_ != nullptr) {
    util::Json args = util::Json::object();
    args.set("function", static_cast<std::int64_t>(function));
    args.set("suspect", static_cast<std::int64_t>(subject));
    args.set("reason", static_cast<std::int64_t>(verdict->reason));
    args.set("observed", verdict->observed);
    args.set("expected", verdict->expected);
    trace_->instant(node_.id(), "core.service", "fault.report",
                    node_.simulator().now(), std::move(args));
  }
  if (is_head()) {
    // Local shortcut: the head observed the fault itself.
    apply(arbiter_.on_fault_report(report, node_.simulator().now()));
  } else {
    (void)node_.router().send(head_id_,
                              static_cast<std::uint8_t>(MsgType::kFaultReport),
                              report.encode());
  }
}

void EvmService::on_datagram(const net::Datagram& d) {
  switch (static_cast<MsgType>(d.type)) {
    case MsgType::kSensorData: handle_sensor_data(d); break;
    case MsgType::kActuation: handle_actuation(d); break;
    case MsgType::kHeartbeat: handle_heartbeat(d); break;
    case MsgType::kModeCommand: handle_mode_command(d); break;
    case MsgType::kFaultReport: handle_fault_report(d); break;
    case MsgType::kMembershipHello: handle_membership_hello(d); break;
    case MsgType::kHeadBeacon: handle_head_beacon(d); break;
    case MsgType::kMigrationOffer:
    case MsgType::kMigrationAccept:
    case MsgType::kMigrationReject:
    case MsgType::kStateChunk:
    case MsgType::kChunkAck:
    case MsgType::kMigrationCommit:
      migration_.handle(d);
      break;
    default: break;
  }
}

void EvmService::handle_sensor_data(const net::Datagram& d) {
  SensorDataMsg msg;
  if (!SensorDataMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  // Object-transfer enforcement: temporal-conditional relations drop stale
  // objects, causal-conditional ones drop out-of-order objects (§3.1.2).
  if (!guard_.accept(d.source, util::TimePoint(msg.timestamp_ns),
                     node_.simulator().now(), msg.seq)) {
    return;
  }
  streams_[msg.stream] = msg.value;
  if (on_stream_) on_stream_(msg);
}

void EvmService::handle_actuation(const net::Datagram& d) {
  ActuationMsg msg;
  if (!ActuationMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  observe_active_output(msg.function, msg.source, msg.value);
  if (actuation_handler_) actuation_handler_(msg);
}

void EvmService::handle_heartbeat(const net::Datagram& d) {
  HeartbeatMsg msg;
  if (!HeartbeatMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  if (msg.node == node_.id()) return;
  if (msg.mode == ControllerMode::kActive) {
    observe_active_output(msg.function, msg.node, msg.output);
  }
  if (is_head()) {
    apply(arbiter_.on_heartbeat(msg, node_.simulator().now()));
  } else {
    arbiter_.mirror_heartbeat(msg);
  }
}

void EvmService::handle_head_beacon(const net::Datagram& d) {
  HeadBeaconMsg msg;
  if (!HeadBeaconMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  if (msg.head != head_id_) {
    // Lowest id wins: adopt a lower-id claimant (a recovered original head
    // reclaims the role); a higher-id claimant is adopted only if our own
    // head has gone silent (we would be about to elect it anyway).
    if (msg.head < head_id_ || head_silent()) {
      EVM_INFO(kTag, "node " << node_.id() << " adopts node " << msg.head
                             << " as VC head");
      head_id_ = msg.head;
      beacon_seq_synced_ = false;  // re-sync to the new head's tag stream
    } else {
      return;
    }
  }
  head_provisional_ = false;  // the claimant itself was heard
  heard_head();
}

void EvmService::on_beacon_tag(const net::BeaconTag& tag) {
  if (!tag.valid() || tag.head == node_.id()) return;
  if (tag.head == head_id_) {
    if (!beacon_seq_synced_ || seq_advanced(tag.seq, beacon_seq_seen_)) {
      beacon_seq_seen_ = tag.seq;
      beacon_seq_synced_ = true;
      head_provisional_ = false;  // the believed head's stream is live
      heard_head();
      // Re-gossip the freshest proof on everything we send from here on.
      node_.router().set_beacon_tag(tag);
    }
    return;
  }
  // Foreign head claim riding the data plane. Unlike an explicit beacon —
  // which only the claimant itself originates — a tag is re-gossiped by
  // third parties, so a circulating tag is NOT proof its head is alive
  // (members would re-adopt a corpse off their own stale heartbeat tags).
  // Tags therefore only sway the election once our own head has gone
  // silent; the lower-id-reclaims rule stays on the explicit-beacon path.
  //
  // A provisional successor guess holds zero evidence, so the lowest-id-wins
  // rule applies to it immediately: a tag naming a lower-id head displaces
  // the guess without waiting out another full silence window. (A confirmed
  // head is still only displaced by silence — a circulating stale tag must
  // not depose a live head.)
  if (head_silent() || (head_provisional_ && tag.head < head_id_)) {
    EVM_INFO(kTag, "node " << node_.id() << " adopts node " << tag.head
                           << " as VC head (piggy-backed beacon)");
    head_id_ = tag.head;
    beacon_seq_seen_ = tag.seq;
    beacon_seq_synced_ = true;
    head_provisional_ = false;
    heard_head();
    node_.router().set_beacon_tag(tag);
  }
}

bool EvmService::head_silent() const {
  return node_.simulator().now() - last_beacon_ > arbiter_.policy().beacon_silence();
}

void EvmService::heard_head() {
  last_beacon_ = node_.simulator().now();
  if (watchdog_ == Watchdog::kAsleep) arm_watchdog();
}

void EvmService::check_head_liveness() {
  // Out-of-tree pure relays are not on the scoped dissemination structure:
  // the beacon plane does not reliably reach them, they hold no replicas,
  // and a spurious succession from one of them would only add noise — they
  // sit the election out.
  if (!head_silent()) return;
  // The head timed out: stop re-gossiping its (now stale) tag. Leaving it
  // stamped on our own frames would keep the corpse's liveness proof
  // circulating forever. This applies to out-of-tree relays too — they
  // still stamp the frames they forward — even though they sit the
  // election below out.
  node_.router().set_beacon_tag({});
  if (!node_.router().participates_in_dissemination()) return;
  // Deterministic succession: the next member id above the silent head,
  // wrapping to the lowest. Walking upward means a provisional successor
  // that is itself dead hands over to the member after it, instead of the
  // survivors alternating between two corpses.
  net::NodeId successor = net::kInvalidNode;
  net::NodeId lowest = net::kInvalidNode;
  for (net::NodeId member : descriptor_.members) {
    if (member == head_id_) continue;
    if (member > head_id_ && member < successor) successor = member;
    lowest = std::min(lowest, member);
  }
  if (successor == net::kInvalidNode) successor = lowest;
  if (successor == node_.id()) {
    become_head();
  } else if (successor != net::kInvalidNode) {
    // Provisionally adopt; the successor's first beacon (explicit or
    // piggy-backed tag) confirms it. The liveness clock restarts so the
    // successor gets a full silence window to prove itself before this
    // node escalates again.
    head_id_ = successor;
    beacon_seq_synced_ = false;
    head_provisional_ = true;
    heard_head();
  }
}

void EvmService::become_head() {
  // The next beat comes from the evm-beacon task's next release.
  run_beacon_task();
  ++head_successions_;
  if (trace_ != nullptr) {
    util::Json args = util::Json::object();
    args.set("succession", static_cast<std::int64_t>(head_successions_));
    trace_->instant(node_.id(), "core.service", "head.elect",
                    node_.simulator().now(), std::move(args));
  }
  head_id_ = node_.id();
  head_provisional_ = false;
  last_beacon_ = node_.simulator().now();
  // Claim the beacon plane immediately: every frame this node sends from
  // here on carries its head tag, so the claim gossips on heartbeats
  // without waiting for the next explicit beacon tick.
  ++beacon_seq_sent_;
  node_.router().set_beacon_tag({node_.id(), beacon_seq_sent_});
  EVM_INFO(kTag, "node " << node_.id() << " assumes VC head role (succession #"
                         << head_successions_ << ")");
  arbiter_.on_become_head(node_.simulator().now());
}

void EvmService::arm_watchdog() {
  const std::int64_t period = arbiter_.policy().head_beacon_period.ns();
  const std::int64_t first = (beacon_origin_ + kBeaconWcet).ns();
  const std::int64_t silent_after = (last_beacon_ + arbiter_.policy().beacon_silence()).ns();
  const std::int64_t now = node_.simulator().now().ns();
  // Smallest k >= 0 with first + k·period > silent_after and >= now.
  std::int64_t k = silent_after < first ? 0 : (silent_after - first) / period + 1;
  if (now > first) k = std::max(k, (now - first + period - 1) / period);
  watchdog_ = Watchdog::kArmed;
  watchdog_event_ = node_.simulator().schedule_at(util::TimePoint(first + k * period),
                                                  [this] { on_watchdog(); });
}

void EvmService::on_watchdog() {
  watchdog_ = Watchdog::kAsleep;
  // A provisional adoption re-arms through heard_head(); a succession
  // switches to the task.
  check_head_liveness();
  if (watchdog_ == Watchdog::kAsleep && !head_silent()) arm_watchdog();
}

void EvmService::on_liveness_change() {
  if (watchdog_ == Watchdog::kTask) return;
  if (node_.failed()) {
    node_.simulator().cancel(watchdog_event_);
    watchdog_ = Watchdog::kDown;
  } else {
    beacon_origin_ = node_.simulator().now();
    arm_watchdog();
  }
}

void EvmService::run_beacon_task() {
  if (watchdog_ == Watchdog::kTask) return;
  rtos::Kernel& kernel = node_.kernel();
  rtos::TaskParams& params = kernel.scheduler().task(beacon_task_)->params;
  if (watchdog_ != Watchdog::kDown) {
    // Un-park: the first release lands on the watchdog's grid,
    // origin + k·period >= now. (A crashed node's task restarts with the
    // node, at once, as every restarted task does.)
    node_.simulator().cancel(watchdog_event_);
    const util::Duration period = arbiter_.policy().head_beacon_period;
    const std::int64_t since = (node_.simulator().now() - beacon_origin_).ns();
    const std::int64_t k = (since + period.ns() - 1) / period.ns();
    (void)kernel.stop_task(beacon_task_);
    params.phase = beacon_origin_ + period * k - node_.simulator().now();
    (void)kernel.start_task(beacon_task_);
  }
  params.phase = util::Duration::zero();
  watchdog_ = Watchdog::kTask;
}

void EvmService::observe_active_output(FunctionId function, net::NodeId source,
                                       double output) {
  auto it = functions_.find(function);
  if (it == functions_.end()) return;
  FunctionRuntime& rt = it->second;
  rt.observed_active = source;
  rt.observed_output = output;
  rt.heard_since_last_cycle = true;
}

void EvmService::handle_mode_command(const net::Datagram& d) {
  ModeCommandMsg msg;
  if (!ModeCommandMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  if (msg.target != node_.id()) return;
  accept_mode_command(msg.function, msg.mode, msg.epoch);
}

void EvmService::accept_mode_command(FunctionId function, ControllerMode mode,
                                     std::uint32_t epoch) {
  auto it = functions_.find(function);
  if (it == functions_.end()) return;
  if (epoch <= it->second.last_epoch) return;  // stale command
  it->second.last_epoch = epoch;
  (void)set_mode(function, mode);
}

void EvmService::handle_fault_report(const net::Datagram& d) {
  if (!is_head()) {
    // The reporter addressed a stale head belief. Dropping the report
    // silently would stall the failover until the reporter re-detects and
    // re-sends (36 s+ in the large worlds), so relay it toward this node's
    // own believed head instead. Head beliefs converge toward the lowest-id
    // claimant, and the strictly-decreasing-id guard makes the forwarding
    // chain terminate even if two nodes hold each other as head.
    if (head_id_ < node_.id()) {
      EVM_INFO(kTag, "node " << node_.id()
                             << " relays fault report toward believed head "
                             << head_id_);
      (void)node_.router().send(head_id_, d.type, d.payload);
    }
    return;
  }
  FaultReportMsg msg;
  if (!FaultReportMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;

  apply(arbiter_.on_fault_report(msg, node_.simulator().now()));
}

void EvmService::apply(const HeadArbiter::Decision& decision) {
  using Cause = HeadArbiter::Cause;
  const FunctionId function = decision.function;
  const util::TimePoint now = node_.simulator().now();
  switch (decision.cause) {
    case Cause::kSilentActive:
      EVM_WARN(kTag, "head: Active node " << decision.subject << " silent for "
                     << decision.silence.to_seconds() << " s (function "
                     << function << "); re-arbitrating");
      break;
    case Cause::kPromotionTimeout:
      EVM_WARN(kTag, "head: promoted node " << decision.subject
                     << " never became active; escalating");
      break;
    case Cause::kStaleActive:
      EVM_INFO(kTag, "head: demoting stale Active node " << decision.subject
                     << " (function " << function << ", node "
                     << *arbiter_.active(function) << " is in charge since epoch "
                     << arbiter_.record(function)->promote_epoch << ")");
      break;
    case Cause::kRejoinedBackup:
      EVM_INFO(kTag, "head: retrying promotion with rejoined node "
                     << decision.subject << " (function " << function << ")");
      break;
    default: break;
  }
  // A promotion names the replica it raises; a failover names the suspect.
  const auto& event = decision.failover;
  const bool promotion =
      decision.cause == Cause::kRejoinedBackup || decision.cause == Cause::kNoActive;
  if (trace_ != nullptr && (promotion || event.has_value())) {
    util::Json args = util::Json::object();
    args.set("function", static_cast<std::int64_t>(function));
    if (promotion) {
      args.set("promoted", static_cast<std::int64_t>(decision.subject));
    } else {
      args.set("suspect", static_cast<std::int64_t>(decision.subject));
      args.set("reason", static_cast<std::int64_t>(event->reason));
    }
    trace_->instant(node_.id(), "core.service", promotion ? "promote" : "failover",
                    now, std::move(args));
  }
  const bool stranded = event.has_value() && event->promoted == net::kInvalidNode;
  if (event.has_value()) {
    failovers_.push_back(*event);
    if (!promotion && !stranded) {
      EVM_INFO(kTag, "head: failover function " << function << ": "
                     << decision.subject << " -> " << event->promoted);
    }
  }
  for (const auto& c : decision.commands) {
    if (c.target == node_.id()) {
      accept_mode_command(function, c.mode, c.epoch);
      continue;
    }
    ModeCommandMsg cmd;
    cmd.vc = descriptor_.id;
    cmd.function = function;
    cmd.target = c.target;
    cmd.mode = c.mode;
    cmd.epoch = c.epoch;
    (void)node_.router().send(c.target, static_cast<std::uint8_t>(MsgType::kModeCommand),
                              cmd.encode());
  }
  if (stranded) EVM_WARN(kTag, "head: no backup available for function " << function);
  for (const auto& timer : decision.timers) {
    node_.simulator().schedule_after(timer.after, [this, function, timer] {
      apply(arbiter_.on_deadline(function, timer, node_.simulator().now()));
    });
  }
}

void EvmService::announce_membership() {
  MembershipHelloMsg hello;
  hello.vc = descriptor_.id;
  hello.node = node_.id();
  hello.cpu_headroom = 1.0 - node_.kernel().utilization();
  hello.ram_free = static_cast<std::uint32_t>(node_.kernel().ram_capacity() -
                                              node_.kernel().ram_used());
  hello.battery_percent =
      static_cast<std::uint8_t>(node_.battery_fraction() * 100.0);
  (void)node_.router().send(head_id_,
                            static_cast<std::uint8_t>(MsgType::kMembershipHello),
                            hello.encode());
}

void EvmService::handle_membership_hello(const net::Datagram& d) {
  if (!is_head()) return;
  MembershipHelloMsg msg;
  if (!MembershipHelloMsg::decode(d.payload, msg) || msg.vc != descriptor_.id) return;
  if (!descriptor_.is_member(msg.node)) {
    descriptor_.members.push_back(msg.node);
    EVM_INFO(kTag, "head: admitted node " << msg.node << " to VC "
                   << descriptor_.id);
  }
  if (on_member_joined_) on_member_joined_(msg);
}

std::size_t EvmService::rebalance(double keep_cost) {
  if (!is_head()) return 0;

  // Order functions and candidate nodes deterministically.
  std::vector<FunctionId> fids;
  for (const auto& [fid, fn] : descriptor_.functions) {
    (void)fn;
    fids.push_back(fid);
  }
  std::vector<net::NodeId> nodes = descriptor_.members;
  std::sort(nodes.begin(), nodes.end());
  // The head itself typically doubles as the gateway; it stays eligible.

  std::vector<double> task_util;
  std::vector<std::vector<double>> distance;
  for (FunctionId fid : fids) {
    const ControlFunction& def = descriptor_.functions.at(fid);
    task_util.push_back(def.task.utilization());
    std::vector<double> row(nodes.size(), keep_cost);
    const auto active = arbiter_.active(fid);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (active.has_value() && nodes[n] == *active) row[n] = 0.0;
    }
    distance.push_back(std::move(row));
  }
  std::vector<double> capacity(nodes.size(), 1.0);

  BqpProblem problem = make_balance_problem(task_util, capacity, distance,
                                            /*colocation_penalty=*/0.1);
  auto solution = solve(problem);
  if (!solution) {
    EVM_WARN(kTag, "rebalance: optimizer failed: " << solution.status().to_string());
    return 0;
  }

  std::size_t moved = 0;
  for (std::size_t t = 0; t < fids.size(); ++t) {
    const FunctionId fid = fids[t];
    const net::NodeId target = nodes[solution->assignment[t]];
    const auto active = arbiter_.active(fid);
    if (active.has_value() && *active == target) continue;

    ++moved;
    if (active.has_value() && *active == node_.id()) {
      // The head holds this function: push it to the target with state.
      migrate_function(fid, target, ControllerMode::kActive,
                       [this, fid, target](const MigrationOutcome& outcome) {
                         if (outcome.success) {
                           arbiter_.set_mode(fid, target, ControllerMode::kActive);
                         }
                       });
    } else {
      // Promote the target (it becomes Active; a replica set that does not
      // yet include it needs a migration from the current holder, which the
      // head requests by demoting the holder after promotion).
      apply(arbiter_.hand_over(fid, target));
    }
  }
  return moved;
}

util::Status EvmService::disseminate_algorithm(FunctionId function,
                                               const vm::Capsule& capsule) {
  AlgorithmUpdateMsg msg;
  msg.vc = descriptor_.id;
  msg.function = function;
  msg.capsule_bytes = capsule.encode();
  const auto encoded = msg.encode();

  // Apply locally first (the sender is a replica too, possibly).
  handle_algorithm_update(encoded);

  // Capsules exceed one 802.15.4 frame, so they ship per-member through the
  // chunked, acknowledged migration engine (payload kind 2).
  util::ByteWriter w;
  w.u8(2);  // payload kind: algorithm update
  w.bytes(encoded);
  const auto payload = w.take();
  for (net::NodeId member : descriptor_.members) {
    if (member == node_.id()) continue;
    MigrationOfferMsg meta;
    meta.vc = descriptor_.id;
    meta.function = function;
    migration_.initiate(member, meta, payload, {});
  }
  return util::Status::ok();
}

std::uint16_t EvmService::algorithm_version(FunctionId function) const {
  auto it = descriptor_.functions.find(function);
  return it == descriptor_.functions.end() ? 0 : it->second.algorithm.version;
}

void EvmService::handle_algorithm_update(std::span<const std::uint8_t> encoded) {
  AlgorithmUpdateMsg msg;
  if (!AlgorithmUpdateMsg::decode(encoded, msg) || msg.vc != descriptor_.id) {
    return;
  }
  auto fit = descriptor_.functions.find(msg.function);
  if (fit == descriptor_.functions.end()) return;

  vm::Capsule capsule;
  if (!vm::Capsule::decode(msg.capsule_bytes, capsule)) return;
  if (capsule.version <= fit->second.algorithm.version) return;  // stale

  const auto report = vm::attest(capsule);
  if (!report.passed()) {
    EVM_WARN(kTag, "node " << node_.id() << " rejected algorithm update v"
                           << capsule.version << ": " << report.failure);
    return;
  }
  EVM_INFO(kTag, "node " << node_.id() << " activated algorithm v"
                         << capsule.version << " for function " << msg.function);
  // Hot swap: the VM data slots (controller state) survive the update.
  fit->second.algorithm = std::move(capsule);
}

void EvmService::migrate_function(FunctionId function, net::NodeId dest,
                                  ControllerMode target_mode,
                                  std::function<void(const MigrationOutcome&)> on_done) {
  transfer_function(function, dest, target_mode, /*deactivate_source=*/true,
                    std::move(on_done));
}

void EvmService::replicate_function(FunctionId function, net::NodeId dest,
                                    ControllerMode target_mode,
                                    std::function<void(const MigrationOutcome&)> on_done) {
  transfer_function(function, dest, target_mode, /*deactivate_source=*/false,
                    std::move(on_done));
}

void EvmService::transfer_function(FunctionId function, net::NodeId dest,
                                   ControllerMode target_mode,
                                   bool deactivate_source,
                                   std::function<void(const MigrationOutcome&)> on_done) {
  auto it = functions_.find(function);
  if (it == functions_.end()) {
    MigrationOutcome outcome;
    outcome.failure = "function not held on this node";
    if (on_done) on_done(outcome);
    return;
  }
  FunctionRuntime& rt = it->second;
  const ControlFunction& def = descriptor_.functions.at(function);

  auto snapshot = node_.kernel().snapshot(rt.task, /*freeze=*/false);
  if (!snapshot) {
    MigrationOutcome outcome;
    outcome.failure = snapshot.status().to_string();
    if (on_done) on_done(outcome);
    return;
  }

  util::ByteWriter w;
  w.u8(1);  // payload kind: function transfer
  w.u16(function);
  w.u8(static_cast<std::uint8_t>(target_mode));
  w.blob(snapshot->encode());
  w.blob(rt.interpreter->save_slots());
  w.blob(def.algorithm.encode());

  MigrationOfferMsg meta;
  meta.vc = descriptor_.id;
  meta.function = function;
  meta.required_utilization = def.task.utilization();
  meta.required_ram =
      static_cast<std::uint32_t>(snapshot->stack.size() + snapshot->data.size());

  migration_.initiate(
      dest, meta, w.take(),
      [this, function, deactivate_source,
       on_done = std::move(on_done)](const MigrationOutcome& outcome) {
        if (outcome.success && deactivate_source) {
          // Source side of a committed migration goes Dormant (the state
          // now lives at the destination). Replication keeps the source.
          (void)set_mode(function, ControllerMode::kDormant);
        }
        if (on_done) on_done(outcome);
      });
}

bool EvmService::accept_migrated_function(const MigrationOfferMsg& meta,
                                          const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  const std::uint8_t kind = r.u8();
  if (kind == 2) {
    // Algorithm update shipped through the engine: feed the normal handler.
    const auto remaining = r.bytes(r.remaining());
    if (!r.ok()) return false;
    handle_algorithm_update(remaining);
    return true;
  }
  if (kind != 1) return false;
  const FunctionId function = r.u16();
  const auto target_mode = static_cast<ControllerMode>(r.u8());
  const auto snapshot_bytes = r.blob();
  const auto slot_image = r.blob();
  const auto capsule_bytes = r.blob();
  if (!r.ok() || function != meta.function) return false;

  rtos::TaskSnapshot snapshot;
  if (!rtos::TaskSnapshot::decode(snapshot_bytes, snapshot)) return false;
  vm::Capsule capsule;
  if (!vm::Capsule::decode(capsule_bytes, capsule)) return false;

  // Attestation: CRC + structure, before anything is installed.
  const auto report = vm::attest(capsule);
  if (!report.passed()) {
    EVM_WARN(kTag, "node " << node_.id() << " rejected migrated capsule: "
                           << report.failure);
    return false;
  }

  auto fit = descriptor_.functions.find(function);
  if (fit == descriptor_.functions.end()) return false;
  // The migrated capsule is authoritative (may be newer than design-time),
  // once it installs; until then the receiver keeps its own copy.
  ControlFunction previous = fit->second;
  fit->second.algorithm = capsule;
  fit->second.task = snapshot.params;

  util::Status status = install_function(fit->second, target_mode, &slot_image);
  if (!status) {
    fit->second = std::move(previous);
    EVM_WARN(kTag, "node " << node_.id() << " failed to install migrated function: "
                           << status.to_string());
    return false;
  }
  return true;
}

}  // namespace evm::core
