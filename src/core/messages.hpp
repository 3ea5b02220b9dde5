// EVM message plane. The paper's architecture defines "explicit mechanisms
// for control, data and fault communication within the virtual component";
// these are the wire messages of those three planes, carried as routed
// datagrams over RT-Link. All encodings are explicit little-endian via
// ByteWriter/ByteReader, and each message states its layout once.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/modes.hpp"
#include "net/packet.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace evm::core {

using VcId = std::uint16_t;
using FunctionId = std::uint16_t;  // a control function within a VC

/// Datagram.type values for EVM traffic.
enum class MsgType : std::uint8_t {
  // Data plane
  kSensorData = 0x01,
  kActuation = 0x02,
  // Control plane
  kHeartbeat = 0x10,
  kModeCommand = 0x11,
  kMembershipHello = 0x12,
  kHeadBeacon = 0x14,
  // Fault plane
  kFaultReport = 0x20,
  // Programmable control (paper §3.1: runtime-extensible algorithms). The
  // paper's §4 parametric control (remote sensor triggering, reservation
  // and slot changes) is not modelled.
  kAlgorithmUpdate = 0x41,
  // Migration protocol
  kMigrationOffer = 0x30,
  kMigrationAccept = 0x31,
  kMigrationReject = 0x32,
  kStateChunk = 0x33,
  kChunkAck = 0x34,
  kMigrationCommit = 0x35,
};

/// Wire codec shared by every message: `Msg::fields(msg, f)` passes the
/// fields to `f` in wire order, and both directions walk that one list.
/// Enums travel as one byte and byte vectors as length-prefixed blobs.
template <typename Msg>
struct Wire {
  std::vector<std::uint8_t> encode() const {
    util::ByteWriter w;
    Msg::fields(static_cast<const Msg&>(*this),
                [&w](const auto&... field) { (put(w, field), ...); });
    return w.take();
  }
  static bool decode(std::span<const std::uint8_t> bytes, Msg& out) {
    util::ByteReader r(bytes);
    Msg::fields(out, [&r](auto&... field) { (get(r, field), ...); });
    return r.ok();
  }

 private:
  template <typename T>
  static void put(util::ByteWriter& w, const T& v) {
    static_assert(!std::is_enum_v<T> || sizeof(T) == 1, "enums travel as one byte");
    if constexpr (std::is_enum_v<T>) w.u8(static_cast<std::uint8_t>(v));
    else if constexpr (std::is_same_v<T, std::uint8_t>) w.u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) w.u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) w.u32(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) w.i64(v);
    else if constexpr (std::is_same_v<T, double>) w.f64(v);
    else w.blob(v);
  }
  template <typename T>
  static void get(util::ByteReader& r, T& v) {
    if constexpr (std::is_enum_v<T>) v = static_cast<T>(r.u8());
    else if constexpr (std::is_same_v<T, std::uint8_t>) v = r.u8();
    else if constexpr (std::is_same_v<T, std::uint16_t>) v = r.u16();
    else if constexpr (std::is_same_v<T, std::uint32_t>) v = r.u32();
    else if constexpr (std::is_same_v<T, std::int64_t>) v = r.i64();
    else if constexpr (std::is_same_v<T, double>) v = r.f64();
    else v = r.blob();
  }
};

/// Data plane: a published sensor or derived stream sample. `seq` is a
/// per-(publisher, stream) sequence number used by causal-conditional
/// object transfers; `timestamp_ns` drives temporal-conditional ones.
struct SensorDataMsg : Wire<SensorDataMsg> {
  VcId vc = 0;
  std::uint8_t stream = 0;
  double value = 0.0;
  std::int64_t timestamp_ns = 0;
  std::uint32_t seq = 0;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.stream, m.value, m.timestamp_ns, m.seq);
  }
};

/// Data plane: actuation command from the Active controller.
struct ActuationMsg : Wire<ActuationMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  std::uint8_t channel = 0;
  double value = 0.0;
  net::NodeId source = net::kInvalidNode;
  std::uint32_t cycle = 0;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.channel, m.value, m.source, m.cycle);
  }
};

/// Control plane: periodic liveness + mode + last output (health transfers
/// piggyback on this; backups compare `output` with their own computation).
/// `epoch` carries the replica's last accepted mode-command epoch so a
/// succeeding head can resume arbitration without issuing stale commands.
struct HeartbeatMsg : Wire<HeartbeatMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  net::NodeId node = net::kInvalidNode;
  ControllerMode mode = ControllerMode::kDormant;
  double output = 0.0;
  std::uint32_t cycle = 0;
  std::uint32_t epoch = 0;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.node, m.mode, m.output, m.cycle, m.epoch);
  }
};

/// Control plane: the current head's liveness beacon. Members that stop
/// hearing it elect the lowest-id surviving member as the new head.
struct HeadBeaconMsg : Wire<HeadBeaconMsg> {
  VcId vc = 0;
  net::NodeId head = net::kInvalidNode;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.head);
  }
};

/// Control plane: the VC head reassigns a controller's mode.
struct ModeCommandMsg : Wire<ModeCommandMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  net::NodeId target = net::kInvalidNode;
  ControllerMode mode = ControllerMode::kDormant;
  std::uint32_t epoch = 0;  // monotone per (vc, function); stale commands ignored

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.target, m.mode, m.epoch);
  }
};

/// Fault plane: a backup reports a suspect primary to the VC head.
enum class FaultReason : std::uint8_t {
  kSilent = 1,          // heartbeats stopped
  kImplausibleOutput = 2,  // output deviates from shadow computation
  kSelfReported = 3,    // node announced its own failure (battery, ...)
};

struct FaultReportMsg : Wire<FaultReportMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  net::NodeId suspect = net::kInvalidNode;
  net::NodeId reporter = net::kInvalidNode;
  FaultReason reason = FaultReason::kSilent;
  double observed = 0.0;
  double expected = 0.0;
  std::uint32_t evidence = 0;  // consecutive faulty cycles observed

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.suspect, m.reporter, m.reason, m.observed, m.expected,
      m.evidence);
  }
};

/// Membership: a node joining (or re-joining) a virtual component.
struct MembershipHelloMsg : Wire<MembershipHelloMsg> {
  VcId vc = 0;
  net::NodeId node = net::kInvalidNode;
  double cpu_headroom = 0.0;   // 1 - utilization
  std::uint32_t ram_free = 0;  // bytes
  std::uint8_t battery_percent = 100;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.node, m.cpu_headroom, m.ram_free, m.battery_percent);
  }
};

/// Programmable control: a new algorithm capsule for a function, installed
/// after attestation if its version is newer ("remote algorithm activation").
struct AlgorithmUpdateMsg : Wire<AlgorithmUpdateMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  std::vector<std::uint8_t> capsule_bytes;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.capsule_bytes);
  }
};

// --- Migration protocol ----------------------------------------------------

struct MigrationOfferMsg : Wire<MigrationOfferMsg> {
  VcId vc = 0;
  FunctionId function = 0;
  std::uint16_t session = 0;
  std::uint32_t total_bytes = 0;
  std::uint16_t chunk_count = 0;
  /// Candidate must satisfy these before accepting.
  double required_utilization = 0.0;
  std::uint32_t required_ram = 0;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.vc, m.function, m.session, m.total_bytes, m.chunk_count, m.required_utilization,
      m.required_ram);
  }
};

struct MigrationReplyMsg : Wire<MigrationReplyMsg> {  // accept or reject
  std::uint16_t session = 0;
  std::uint8_t accept = 0;
  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.session, m.accept);
  }
};

struct StateChunkMsg : Wire<StateChunkMsg> {
  std::uint16_t session = 0;
  std::uint16_t index = 0;
  std::vector<std::uint8_t> data;

  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.session, m.index, m.data);
  }
};

struct ChunkAckMsg : Wire<ChunkAckMsg> {
  std::uint16_t session = 0;
  std::uint16_t index = 0;
  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.session, m.index);
  }
};

struct MigrationCommitMsg : Wire<MigrationCommitMsg> {
  std::uint16_t session = 0;
  std::uint8_t success = 0;  // destination's verdict after attestation+admission
  template <typename M, typename F>
  static void fields(M& m, F&& f) {
    f(m.session, m.success);
  }
};

}  // namespace evm::core
