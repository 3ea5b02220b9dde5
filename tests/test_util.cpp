#include <gtest/gtest.h>

#include <set>

#include "util/bytes.hpp"
#include "util/crc.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace evm::util {
namespace {

// --- Time -------------------------------------------------------------------

TEST(Duration, UnitConstructorsAgree) {
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::micros(1).ns(), 1'000);
  EXPECT_EQ(Duration::nanos(1).ns(), 1);
  EXPECT_EQ(Duration::from_seconds(0.5).ns(), 500'000'000);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(300);
  const Duration b = Duration::millis(200);
  EXPECT_EQ((a + b).ms(), 500);
  EXPECT_EQ((a - b).ms(), 100);
  EXPECT_EQ((a * 3).ms(), 900);
  EXPECT_EQ((a / 3).us(), 100'000);
  EXPECT_EQ(a / b, 1);
  EXPECT_EQ((a % b).ms(), 100);
  EXPECT_EQ((-a).ms(), -300);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE(Duration::millis(1).is_positive());
  EXPECT_FALSE(Duration::millis(-1).is_positive());
}

TEST(TimePoint, DurationInterplay) {
  const TimePoint t0 = TimePoint::zero();
  const TimePoint t1 = t0 + Duration::seconds(5);
  EXPECT_EQ((t1 - t0).to_seconds(), 5.0);
  EXPECT_EQ((t1 - Duration::seconds(2)).to_seconds(), 3.0);
  TimePoint t = t0;
  t += Duration::millis(1500);
  EXPECT_EQ(t.ms(), 1500);
}

TEST(Duration, ConversionPrecision) {
  // Sub-microsecond and multi-hour magnitudes coexist without loss.
  const Duration tiny = Duration::nanos(137);
  const Duration huge = Duration::seconds(3600 * 24);
  EXPECT_EQ((huge + tiny).ns(), 86'400'000'000'137);
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(13);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream must not simply replay the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// --- CRC -----------------------------------------------------------------------

TEST(Crc, Crc16KnownVector) {
  // CRC-16-CCITT(0xFFFF) of "123456789" is 0x29B1.
  const std::string data = "123456789";
  EXPECT_EQ(crc16(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(data.data()), data.size())),
            0x29B1);
}

TEST(Crc, Crc32KnownVector) {
  // CRC-32 (IEEE) of "123456789" is 0xCBF43926.
  const std::string data = "123456789";
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(data.data()), data.size())),
            0xCBF43926u);
}

TEST(Crc, EmptyInput) {
  EXPECT_EQ(crc16({}), 0xFFFF);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc, SingleBitFlipDetected) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint32_t clean = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    auto copy = data;
    copy[byte] ^= 0x01;
    EXPECT_NE(crc32(copy), clean) << "flip at byte " << byte;
  }
}

TEST(Crc, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  // The textbook one-bit-at-a-time reflected CRC-32, kept here as the
  // reference the table-driven crc32 must reproduce.
  auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::uint8_t byte : data) {
      c ^= byte;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(99);
  std::vector<std::uint8_t> buffer(308);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const auto span = all.subspan(offset, length);
      ASSERT_EQ(crc32(span), reference(span)) << "offset " << offset << " length " << length;
    }
  }
}

// --- Content hash ------------------------------------------------------------------

TEST(ContentHash, Fnv1a64MatchesPublishedVectors) {
  // Reference values of 64-bit FNV-1a (offset basis 0xcbf29ce484222325,
  // prime 0x100000001b3).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(content_hash("foobar"), "85944171f73967e8");
  // The seed continues a hash: hashing in two parts equals one pass.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(ContentHash, HexIsSixteenLowercaseDigitsWithLeadingZeros) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(0xABCULL), "0000000000000abc");
  EXPECT_EQ(hash_hex(0x0123456789ABCDEFULL), "0123456789abcdef");
  EXPECT_EQ(hash_hex(~0ULL), "ffffffffffffffff");
  // Nearby inputs get different keys.
  std::set<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    std::string json = "{\"seed\":";
    json += std::to_string(i);
    json += "}";
    keys.insert(content_hash(json));
  }
  EXPECT_EQ(keys.size(), 1000u);
}

// --- Bytes -----------------------------------------------------------------------

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BlobAndString) {
  ByteWriter w;
  w.blob(std::vector<std::uint8_t>{1, 2, 3});
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, TruncatedReadFailsSafely) {
  ByteWriter w;
  w.u32(12345);
  ByteReader r(w.data());
  (void)r.u32();
  EXPECT_EQ(r.u64(), 0u);  // read past end returns 0...
  EXPECT_FALSE(r.ok());    // ...and poisons the reader
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x02);
  EXPECT_EQ(w.data()[1], 0x01);
}

class BytesRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BytesRoundTrip, ArbitraryBlobSizes) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> payload(GetParam());
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  ByteWriter w;
  w.blob(payload);
  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), payload);
  EXPECT_TRUE(r.ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesRoundTrip,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 255, 1024, 8192));

// --- RingBuffer ---------------------------------------------------------------------

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 3; ++i) EXPECT_TRUE(rb.push(i));
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), std::nullopt);
}

TEST(RingBuffer, OverflowCountsDrops) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_FALSE(rb.push(3));
  EXPECT_EQ(rb.drop_count(), 1u);
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, PushEvictKeepsNewest) {
  RingBuffer<int> rb(2);
  rb.push_evict(1);
  rb.push_evict(2);
  rb.push_evict(3);
  EXPECT_EQ(rb.drop_count(), 1u);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
}

TEST(RingBuffer, WrapAroundManyTimes) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rb.push(i));
    EXPECT_EQ(rb.pop(), i);
  }
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.drop_count(), 0u);
}

// --- Status / Result ----------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s);
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s = Status::resource_exhausted("queue full");
  EXPECT_FALSE(s);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.to_string(), "RESOURCE_EXHAUSTED: queue full");
}

TEST(Result, HoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(9), 5);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::not_found("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Status, FactoriesCarryTheirCodeNames) {
  const std::pair<Status, const char*> cases[] = {
      {Status::invalid_argument("m"), "INVALID_ARGUMENT: m"},
      {Status::not_found("m"), "NOT_FOUND: m"},
      {Status::already_exists("m"), "ALREADY_EXISTS: m"},
      {Status::failed_precondition("m"), "FAILED_PRECONDITION: m"},
      {Status::unavailable("m"), "UNAVAILABLE: m"},
      {Status::deadline_exceeded("m"), "DEADLINE_EXCEEDED: m"},
      {Status::data_loss("m"), "DATA_LOSS: m"},
      {Status::internal("m"), "INTERNAL: m"},
  };
  for (const auto& [status, text] : cases) {
    EXPECT_FALSE(status);
    EXPECT_EQ(status.message(), "m");
    EXPECT_EQ(status.to_string(), text);
  }
  EXPECT_STREQ(to_string(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

// --- Logger -------------------------------------------------------------------

/// The logger is a process-wide singleton: each test restores the default
/// level and drops any time source it installed.
struct LoggerFixture : ::testing::Test {
  Logger& log = Logger::instance();
  ~LoggerFixture() override {
    log.set_level(LogLevel::kWarn);
    log.set_time_source(nullptr);
  }
};

TEST_F(LoggerFixture, DefaultLevelIsWarn) {
  EXPECT_EQ(log.level(), LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
}

TEST_F(LoggerFixture, LevelGatesLowerSeverities) {
  log.set_level(LogLevel::kDebug);
  EXPECT_FALSE(log.enabled(LogLevel::kTrace));
  EXPECT_TRUE(log.enabled(LogLevel::kDebug));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(LogLevel::kOff);
  for (LogLevel level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    EXPECT_FALSE(log.enabled(level));
  }
}

TEST_F(LoggerFixture, DisabledMacroDoesNotEvaluateItsMessage) {
  int evaluated = 0;
  auto message = [&] {
    ++evaluated;
    return "x";
  };
  testing::internal::CaptureStderr();
  EVM_DEBUG("test", message());
  EXPECT_EQ(evaluated, 0);
  EVM_ERROR("test", message());
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[ERROR] [test] x\n");
}

TEST_F(LoggerFixture, WriteFormatsLevelTagAndMessage) {
  testing::internal::CaptureStderr();
  log.write(LogLevel::kTrace, "a", "one");
  log.write(LogLevel::kDebug, "b", "two");
  log.write(LogLevel::kInfo, "c", "three");
  log.write(LogLevel::kWarn, "d", "four");
  log.write(LogLevel::kOff, "e", "never");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[TRACE] [a] one\n[DEBUG] [b] two\n[INFO] [c] three\n[WARN] [d] four\n");
}

TEST_F(LoggerFixture, TimeSourcePrefixesVirtualSeconds) {
  log.set_time_source([] { return TimePoint::zero() + Duration::millis(1500); });
  testing::internal::CaptureStderr();
  EVM_WARN("net", "late " << 3);
  log.set_time_source(nullptr);
  EVM_WARN("net", "untimed");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[    1.500000] [WARN] [net] late 3\n[WARN] [net] untimed\n");
}

}  // namespace
}  // namespace evm::util
