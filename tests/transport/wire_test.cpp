// Wire codec: round-trips for every frame type and an adversarial corpus —
// a peer feeding garbage must never crash the decoder, make it over-read,
// or get a malformed frame accepted.
#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace omig::transport {
namespace {

runtime::ObjectState sample_state() {
  runtime::ObjectState state;
  state.type = "case-file";
  state.fields["log"] = "intake;billed";
  state.fields["owner"] = "node-2";
  return state;
}

std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;
  frames.push_back(Frame{7, WireInvoke{42, "case-1", "append", "hello"}});
  frames.push_back(Frame{8, WireInstall{43, "case-1", sample_state()}});
  frames.push_back(Frame{9, WireEvict{44, "case-1"}});
  frames.push_back(Frame{10, WireShutdown{}});
  frames.push_back(
      Frame{11, WireInvokeReply{runtime::InvokeResult{true, "6"}}});
  frames.push_back(Frame{12, WireInstallReply{true}});
  frames.push_back(Frame{13, WireEvictReply{sample_state()}});
  frames.push_back(Frame{14, WireDirLookup{45, "case-1"}});
  frames.push_back(Frame{15, WireDirUpdate{46, "case-1", 3}});
  frames.push_back(
      Frame{16, WireDirLookupReply{DirEntry{.found = true, .node = 3}}});
  frames.push_back(Frame{17, WireDirUpdateReply{true}});
  return frames;
}

/// Payload bytes (after the u32 length prefix) of an encoded frame.
std::vector<std::uint8_t> payload_of(const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  return {bytes.begin() + 4, bytes.end()};
}

TEST(WireCodec, RoundTripsEveryFrameType) {
  for (const Frame& frame : sample_frames()) {
    const auto decoded = decode_payload(payload_of(frame));
    ASSERT_TRUE(decoded.has_value()) << to_string(frame.type());
    EXPECT_EQ(decoded->corr, frame.corr);
    EXPECT_EQ(decoded->payload, frame.payload) << to_string(frame.type());
  }
}

TEST(WireCodec, EmptyStringsAndEmptyStateSurvive) {
  Frame frame{1, WireInvoke{0, "", "", ""}};
  auto decoded = decode_payload(payload_of(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, frame.payload);

  Frame evicted{2, WireEvictReply{runtime::ObjectState{}}};
  decoded = decode_payload(payload_of(evicted));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, evicted.payload);
}

TEST(WireCodec, FrameTypeMatchesVariantAlternative) {
  const std::vector<FrameType> expected = {
      FrameType::Invoke,      FrameType::Install,      FrameType::Evict,
      FrameType::Shutdown,    FrameType::InvokeReply,  FrameType::InstallReply,
      FrameType::EvictReply,  FrameType::DirLookup,    FrameType::DirUpdate,
      FrameType::DirLookupReply, FrameType::DirUpdateReply,
  };
  const std::vector<Frame> frames = sample_frames();
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type(), expected[i]);
  }
}

TEST(WireCodec, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  // Any prefix shorter than the 10-byte header must be rejected.
  for (std::size_t len = 0; len < 10; ++len) {
    EXPECT_FALSE(
        decode_payload({payload.data(), len}).has_value())
        << "accepted a " << len << "-byte header";
  }
}

TEST(WireCodec, RejectsUnknownVersion) {
  std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  payload[0] = kWireVersion + 1;
  EXPECT_FALSE(decode_payload(payload).has_value());
  payload[0] = 0;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsUnknownFrameType) {
  std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  payload[1] = 0;
  EXPECT_FALSE(decode_payload(payload).has_value());
  payload[1] = 200;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsTruncatedBody) {
  for (const Frame& frame : sample_frames()) {
    const std::vector<std::uint8_t> payload = payload_of(frame);
    // Chop anywhere inside the body: never accepted, never over-read.
    for (std::size_t len = 10; len < payload.size(); ++len) {
      EXPECT_FALSE(decode_payload({payload.data(), len}).has_value())
          << to_string(frame.type()) << " truncated to " << len;
    }
  }
}

TEST(WireCodec, RejectsTrailingGarbage) {
  for (const Frame& frame : sample_frames()) {
    std::vector<std::uint8_t> payload = payload_of(frame);
    payload.push_back(0xAB);
    EXPECT_FALSE(decode_payload(payload).has_value())
        << to_string(frame.type());
  }
}

TEST(WireCodec, RejectsOverlongInnerLength) {
  // A string length claiming more bytes than the payload holds.
  std::vector<std::uint8_t> payload =
      payload_of(Frame{1, WireInvoke{5, "obj", "m", "arg"}});
  // Header: version(1) type(1) corr(8) seq(8); then u32 len of "obj".
  payload[18] = 0xFF;
  payload[19] = 0xFF;
  payload[20] = 0xFF;
  payload[21] = 0x7F;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsCorruptEmbeddedState) {
  std::vector<std::uint8_t> payload =
      payload_of(Frame{1, WireEvictReply{sample_state()}});
  // The state blob starts after version+type+corr plus its u32 length;
  // flipping bytes inside it must fail the inner serde decode, not crash.
  for (std::size_t i = 14; i < payload.size(); i += 3) {
    std::vector<std::uint8_t> corrupt = payload;
    corrupt[i] ^= 0xFF;
    (void)decode_payload(corrupt);  // must not crash; result may be either
  }
  // Truncating the embedded blob specifically must be rejected.
  payload.pop_back();
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(FrameBufferTest, ReassemblesSplitDeliveries) {
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  // Feed the whole stream one byte at a time — the worst TCP segmentation.
  FrameBuffer buffer;
  std::vector<Frame> out;
  for (const std::uint8_t byte : stream) {
    buffer.feed({&byte, 1});
    while (auto frame = buffer.next()) out.push_back(std::move(*frame));
  }
  EXPECT_FALSE(buffer.error());
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(out[i].corr, frames[i].corr);
    EXPECT_EQ(out[i].payload, frames[i].payload);
  }
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(FrameBufferTest, HandlesCoalescedDeliveries) {
  // All frames in one read() — the other extreme.
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameBuffer buffer;
  buffer.feed(stream);
  std::size_t count = 0;
  while (auto frame = buffer.next()) {
    EXPECT_EQ(frame->payload, frames[count].payload);
    ++count;
  }
  EXPECT_EQ(count, frames.size());
  EXPECT_FALSE(buffer.error());
}

TEST(FrameBufferTest, OversizedLengthPoisonsTheStream) {
  std::vector<std::uint8_t> evil(4);
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(evil.data(), &huge, 4);
  FrameBuffer buffer;
  buffer.feed(evil);
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
  // Once poisoned, even valid frames are refused — the stream lost framing.
  buffer.feed(encode_frame(sample_frames()[0]));
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

TEST(FrameBufferTest, MalformedPayloadPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frames()[0]);
  bytes[4] = kWireVersion + 9;  // corrupt the version inside a valid frame
  FrameBuffer buffer;
  buffer.feed(bytes);
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

TEST(FrameBufferTest, PartialFrameIsNotAnError) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frames()[1]);
  FrameBuffer buffer;
  buffer.feed({bytes.data(), bytes.size() / 2});
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_FALSE(buffer.error());  // just waiting for the rest
  buffer.feed({bytes.data() + bytes.size() / 2,
               bytes.size() - bytes.size() / 2});
  EXPECT_TRUE(buffer.next().has_value());
  EXPECT_FALSE(buffer.error());
}

// --- read-boundary fuzz -----------------------------------------------------
//
// The event-loop readers hand FrameBuffer whatever recv() returned, so
// frame boundaries land anywhere: mid length-prefix, mid payload, many
// frames coalesced into one read. Reassembly must be byte-exact under
// every split pattern. The sweep below drives a long multi-frame stream
// through 1-byte feeds, a boundary-targeted split set, and 64 seeded
// random chunkings; every run must reproduce the same frame sequence.

std::vector<Frame> fuzz_corpus() {
  std::vector<Frame> frames;
  std::uint64_t corr = 1;
  for (int round = 0; round < 8; ++round) {
    for (Frame& frame : sample_frames()) {
      frame.corr = corr++;
      frames.push_back(frame);
    }
    // A couple of bulky states so splits land deep inside payloads.
    runtime::ObjectState big = sample_state();
    big.fields["blob"] = std::string(1024 + 137 * round, 'x');
    frames.push_back(Frame{corr++, WireInstall{99, "bulk", std::move(big)}});
  }
  return frames;
}

void expect_reassembles(const std::vector<Frame>& expected,
                        const std::vector<std::uint8_t>& stream,
                        const std::vector<std::size_t>& cuts,
                        const std::string& label) {
  FrameBuffer buffer;
  std::vector<Frame> got;
  std::size_t offset = 0;
  auto drain = [&] {
    while (auto frame = buffer.next()) got.push_back(std::move(*frame));
  };
  for (const std::size_t cut : cuts) {
    ASSERT_LE(cut, stream.size()) << label;
    ASSERT_GE(cut, offset) << label;
    buffer.feed({stream.data() + offset, cut - offset});
    ASSERT_FALSE(buffer.error()) << label << " offset " << offset;
    drain();
    offset = cut;
  }
  buffer.feed({stream.data() + offset, stream.size() - offset});
  drain();
  ASSERT_FALSE(buffer.error()) << label;
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].corr, expected[i].corr) << label << " frame " << i;
    EXPECT_EQ(got[i].payload, expected[i].payload) << label << " frame " << i;
  }
}

TEST(FrameBufferFuzz, OneByteFeedsReassembleExactly) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < stream.size(); ++i) cuts.push_back(i);
  expect_reassembles(frames, stream, cuts, "1-byte feeds");
}

TEST(FrameBufferFuzz, SplitsInsideEveryLengthPrefixAndPayload) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> cuts;
  for (const Frame& frame : frames) {
    const std::size_t base = stream.size();
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    // One cut inside the 4-byte length prefix, one right after it, and
    // one mid-payload — the three places a recv() boundary hurts most.
    cuts.push_back(base + 2);
    cuts.push_back(base + 4);
    cuts.push_back(base + 4 + (bytes.size() - 4) / 2);
  }
  expect_reassembles(frames, stream, cuts, "boundary splits");
}

TEST(FrameBufferFuzz, SeededRandomChunkingsAllReassemble) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    // Tiny deterministic LCG: chunk sizes 1..97 bytes, skewed small.
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 33;
    };
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    while (at < stream.size()) {
      at += 1 + next() % 97;
      if (at >= stream.size()) break;
      cuts.push_back(at);
    }
    expect_reassembles(frames, stream, cuts,
                       "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace omig::transport
