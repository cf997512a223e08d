// Batch request messages: randomized round-trips over EvalBatchRequest,
// truncation and corruption rejection, the one-version frame rule, and the
// name-only Hello payload.
#include <gtest/gtest.h>

#include "net/wire.h"
#include "util/rng.h"

namespace ecad::net {
namespace {

TEST(WireBatchRequest, RandomizedRoundTripIsExact) {
  evo::SearchSpace space;
  util::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    EvalBatchRequest request;
    request.batch_id = rng();
    const std::size_t count = rng.next_index(17);  // 0..16, empty included
    for (std::size_t i = 0; i < count; ++i) {
      request.genomes.push_back(evo::random_genome(space, rng));
    }

    WireWriter writer;
    write_eval_batch_request(writer, request);
    WireReader reader(writer.bytes());
    const EvalBatchRequest decoded = read_eval_batch_request(reader);
    reader.expect_end();

    EXPECT_EQ(decoded.batch_id, request.batch_id);
    ASSERT_EQ(decoded.genomes.size(), request.genomes.size());
    for (std::size_t i = 0; i < request.genomes.size(); ++i) {
      EXPECT_EQ(decoded.genomes[i], request.genomes[i]) << "item " << i;
    }
  }
}

TEST(WireBatchRequest, TruncationAlwaysThrows) {
  evo::SearchSpace space;
  util::Rng rng(31);
  EvalBatchRequest request;
  request.batch_id = 77;
  for (int i = 0; i < 3; ++i) request.genomes.push_back(evo::random_genome(space, rng));
  WireWriter writer;
  write_eval_batch_request(writer, request);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          EvalBatchRequest decoded = read_eval_batch_request(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

TEST(WireBatchRequest, HostileCountsAreRejectedBeforeAllocation) {
  WireWriter writer;
  writer.put_u64(1);                    // batch id
  writer.put_u32(kMaxBatchItems + 1);   // count over the cap
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_eval_batch_request(reader), WireError);
}

TEST(WireBatchRequest, CountBeyondPayloadIsRejected) {
  // A plausible count with no genomes behind it must throw, not overread.
  WireWriter writer;
  writer.put_u64(5);
  writer.put_u32(64);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_eval_batch_request(reader), WireError);
}

// ---------------------------------------------------------------------------
// Frame versioning
// ---------------------------------------------------------------------------

TEST(WireFrameVersion, UnsupportedVersionsAreRejected) {
  // Every retired generation and every future one is refused as a typed
  // ProtocolMismatch that names the peer's version.
  std::vector<std::uint8_t> frame = encode_frame(MsgType::Ping, {});
  for (std::uint16_t version = 0; version < 16; ++version) {
    if (version == kProtocolVersion) continue;
    frame[4] = static_cast<std::uint8_t>(version);
    try {
      decode_frame_header(frame.data());
      ADD_FAILURE() << "version " << version << " was accepted";
    } catch (const ProtocolMismatch& e) {
      EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version) + ","),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(std::to_string(kProtocolVersion)),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Hello payload
// ---------------------------------------------------------------------------

TEST(WireHello, TrailingGarbageIsRejected) {
  WireWriter clean;
  write_hello(clean, "worker");
  WireReader clean_reader(clean.bytes());
  EXPECT_EQ(read_hello(clean_reader), "worker");

  // The payload is the name and nothing else: the retired u16 version
  // trailer (or any other byte after the name) is a protocol error.
  WireWriter writer;
  write_hello(writer, "worker");
  writer.put_u16(6);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_hello(reader), WireError);
}

}  // namespace
}  // namespace ecad::net
