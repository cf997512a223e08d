// Seeded mutation fuzzing over every wire decoder: hostile frames are
// rejected, never misread.  Each committed golden fixture (one per message
// type) is bit-flipped, truncated at every length, and has every u32 window
// — which covers every length and count field — inflated.  Every mutated
// input must either decode or throw WireError; any other exception fails
// the test, and the sanitizer builds turn an over-read or overflow into a
// report.  Deterministic (fixed seed), so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "net/wire.h"
#include "util/rng.h"

#ifndef ECAD_NET_GOLDEN_DIR
#error "ECAD_NET_GOLDEN_DIR must point at tests/net/golden (set by tests/CMakeLists.txt)"
#endif

namespace ecad::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct Fixture {
  std::string name;
  Bytes frame;
  MsgType type = MsgType::Ping;
};

std::vector<Fixture> load_fixtures() {
  const std::string suffix = "_v" + std::to_string(kProtocolVersion) + ".bin";
  std::vector<Fixture> fixtures;
  for (const auto& entry : std::filesystem::directory_iterator(ECAD_NET_GOLDEN_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    Fixture fixture;
    fixture.name = name;
    fixture.frame.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    fixture.type = decode_frame_header(fixture.frame.data()).type;
    fixtures.push_back(std::move(fixture));
  }
  return fixtures;
}

/// The payload decoder a receiver runs for `type`, ending with the
/// trailing-bytes check every receiver applies.
void decode_payload(MsgType type, WireReader& reader) {
  switch (type) {
    case MsgType::Hello:
    case MsgType::HelloAck: (void)read_hello(reader); return;
    case MsgType::Ping:
    case MsgType::Pong:
    case MsgType::Shutdown: break;
    case MsgType::EvalBatchRequest: (void)read_eval_batch_request(reader); break;
    case MsgType::EvalItemResult: (void)read_eval_item_result(reader); break;
    case MsgType::EvalBatchDone: (void)read_eval_batch_done(reader); break;
    case MsgType::SubmitSearch: (void)read_submit_search(reader); break;
    case MsgType::SearchAccepted: (void)read_search_accepted(reader); break;
    case MsgType::SearchProgress: (void)read_search_progress(reader); break;
    case MsgType::SearchDone: (void)read_search_done(reader); break;
    case MsgType::CancelSearch: (void)read_cancel_search(reader); break;
    case MsgType::GetStats: (void)read_get_stats(reader); break;
    case MsgType::StatsReport: (void)read_stats_report(reader); break;
    case MsgType::CacheLookup: (void)read_cache_lookup(reader); break;
    case MsgType::CacheStore: (void)read_cache_store(reader); break;
  }
  reader.expect_end();
}

/// Every read_X in wire.h, including the building blocks the frame decoders
/// compose, so each is fed the hostile bytes directly too.
const std::vector<std::function<void(WireReader&)>>& all_readers() {
  static const std::vector<std::function<void(WireReader&)>> readers = {
      [](WireReader& r) { (void)read_genome(r); },
      [](WireReader& r) { (void)read_eval_result(r); },
      [](WireReader& r) { (void)read_search_request(r); },
      [](WireReader& r) { (void)read_eval_batch_request(r); },
      [](WireReader& r) { (void)read_eval_item_result(r); },
      [](WireReader& r) { (void)read_eval_batch_done(r); },
      [](WireReader& r) { (void)read_candidate(r); },
      [](WireReader& r) { (void)read_search_record(r); },
      [](WireReader& r) { (void)read_submit_search(r); },
      [](WireReader& r) { (void)read_search_accepted(r); },
      [](WireReader& r) { (void)read_search_progress(r); },
      [](WireReader& r) { (void)read_search_done(r); },
      [](WireReader& r) { (void)read_cancel_search(r); },
      [](WireReader& r) { (void)read_get_stats(r); },
      [](WireReader& r) { (void)read_stats_report(r); },
      [](WireReader& r) { (void)read_cache_lookup(r); },
      [](WireReader& r) { (void)read_cache_store(r); },
      [](WireReader& r) { (void)read_hello(r); },
  };
  return readers;
}

/// Runs `decode`; a clean return or a WireError is a pass, anything else a
/// failure naming the input.
template <typename Decode>
void expect_decodes_or_wire_error(const Decode& decode, const std::string& what) {
  try {
    decode();
  } catch (const WireError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception";
  }
}

/// The full receive path for one mutated frame: incremental extraction
/// (header validation included), then the extracted type's payload decoder;
/// plus the fixture's own payload decoder straight on the mutated payload
/// bytes, so payload damage is decoded even when the header is broken.
void fuzz_one(const Fixture& fixture, const Bytes& mutated, const std::string& what) {
  expect_decodes_or_wire_error(
      [&] {
        Bytes buffer = mutated;
        Frame frame;
        while (try_extract_frame(buffer, frame)) {
          WireReader reader(frame.payload);
          decode_payload(frame.type, reader);
        }
      },
      what + " (frame)");
  if (mutated.size() <= kFrameHeaderBytes) return;
  expect_decodes_or_wire_error(
      [&] {
        WireReader reader(mutated.data() + kFrameHeaderBytes, mutated.size() - kFrameHeaderBytes);
        decode_payload(fixture.type, reader);
      },
      what + " (payload)");
}

TEST(WireFuzz, GoldenFixturesCoverEveryMessageType) {
  const std::vector<Fixture> fixtures = load_fixtures();
  std::vector<MsgType> seen;
  for (const Fixture& fixture : fixtures) {
    WireReader reader(fixture.frame.data() + kFrameHeaderBytes,
                      fixture.frame.size() - kFrameHeaderBytes);
    EXPECT_NO_THROW(decode_payload(fixture.type, reader)) << fixture.name;
    seen.push_back(fixture.type);
  }
  // 17 message types; the fuzz below is only as wide as this corpus.
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen.size(), 17u);
}

TEST(WireFuzz, BitFlipsDecodeOrThrowWireError) {
  util::Rng rng(0xEC4D5EEDull);
  for (const Fixture& fixture : load_fixtures()) {
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = fixture.frame;
      const int flips = 1 + static_cast<int>(rng.next_index(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng.next_index(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      fuzz_one(fixture, mutated, fixture.name + " flip trial " + std::to_string(trial));
    }
  }
}

TEST(WireFuzz, TruncationsDecodeOrThrowWireError) {
  for (const Fixture& fixture : load_fixtures()) {
    for (std::size_t length = 0; length < fixture.frame.size(); ++length) {
      const Bytes prefix(fixture.frame.begin(),
                         fixture.frame.begin() + static_cast<std::ptrdiff_t>(length));
      fuzz_one(fixture, prefix, fixture.name + " cut at " + std::to_string(length));
      // Every reader, not just the fixture's own, on the truncated payload.
      if (length <= kFrameHeaderBytes) continue;
      for (const auto& reader_fn : all_readers()) {
        expect_decodes_or_wire_error(
            [&] {
              WireReader reader(prefix.data() + kFrameHeaderBytes, length - kFrameHeaderBytes);
              reader_fn(reader);
            },
            fixture.name + " cross-reader cut at " + std::to_string(length));
      }
    }
  }
}

TEST(WireFuzz, InflatedLengthAndCountFieldsDecodeOrThrowWireError) {
  // Overwrite every u32 window; the length and count fields are among them.
  for (const Fixture& fixture : load_fixtures()) {
    for (std::size_t offset = 0; offset + 4 <= fixture.frame.size(); ++offset) {
      std::uint32_t current = 0;
      for (int b = 3; b >= 0; --b) {
        current = (current << 8) | fixture.frame[offset + static_cast<std::size_t>(b)];
      }
      for (const std::uint32_t value : {0xFFFFFFFFu, 0x00010000u, current + 1u}) {
        Bytes mutated = fixture.frame;
        for (int b = 0; b < 4; ++b) {
          mutated[offset + static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(value >> (8 * b));
        }
        fuzz_one(fixture, mutated,
                 fixture.name + " u32@" + std::to_string(offset) + "=" + std::to_string(value));
      }
    }
  }
}

}  // namespace
}  // namespace ecad::net
