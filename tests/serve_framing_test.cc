// Byte-stream framing tests for the socket transport (serve/net/framing)
// plus the protocol robustness suites the transport depends on:
//  - LineFramer unit coverage: partial lines across arbitrary chunk
//    boundaries, CRLF tolerance, empty lines, oversize rejection emitting
//    exactly one event and resynchronizing at the next newline, and the
//    abandoned unterminated tail;
//  - the exhaustive split-point replay: a golden request byte stream is
//    split at EVERY possible chunk boundary, framed, and answered through
//    EstimatorServer::HandleLine — the responses must be byte-identical
//    (modulo the nondeterministic us= latency token) to the single-chunk
//    replay, proving framing never changes what the server sees;
//  - a seeded fuzz corpus over protocol.cc + Query::Deserialize:
//    truncations, control characters, overflowing integers, duplicated
//    fields — every mutated line must produce exactly one well-formed
//    EST/ERR/OK response line and never a crash.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "serve/net/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/generator.h"

namespace lc {
namespace {

using serve::net::LineFramer;

std::vector<LineFramer::Event> FeedAll(LineFramer* framer,
                                       std::string_view bytes) {
  std::vector<LineFramer::Event> events;
  framer->Feed(bytes, &events);
  return events;
}

std::vector<std::string> LinesOf(const std::vector<LineFramer::Event>& events) {
  std::vector<std::string> lines;
  for (const LineFramer::Event& event : events) {
    if (event.kind == LineFramer::Event::Kind::kLine) {
      lines.push_back(event.line);
    }
  }
  return lines;
}

TEST(LineFramerTest, SplitsCompleteLinesAndBuffersTheRest) {
  LineFramer framer(64);
  std::vector<LineFramer::Event> events =
      FeedAll(&framer, "first\nsecond\nthird");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].line, "first");
  EXPECT_EQ(events[1].line, "second");
  EXPECT_EQ(framer.buffered(), 5u);  // "third" awaits its newline.

  events = FeedAll(&framer, " half\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].line, "third half");
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramerTest, ToleratesCrlfAndPreservesInteriorCr) {
  LineFramer framer(64);
  const std::vector<LineFramer::Event> events =
      FeedAll(&framer, "a\r\nb\nc\rd\r\n");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].line, "a");    // One trailing \r stripped.
  EXPECT_EQ(events[1].line, "b");    // Bare \n unchanged.
  EXPECT_EQ(events[2].line, "c\rd"); // Interior \r is payload.
}

TEST(LineFramerTest, EmptyLinesAreLines) {
  LineFramer framer(64);
  const std::vector<LineFramer::Event> events = FeedAll(&framer, "\n\r\nx\n");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].line, "");
  EXPECT_EQ(events[1].line, "");
  EXPECT_EQ(events[2].line, "x");
}

TEST(LineFramerTest, SingleByteDribbleReassemblesExactly) {
  LineFramer framer(64);
  const std::string stream = "T:0,1|J:0|P:\r\nADMIN STATS\n";
  std::vector<std::string> lines;
  for (char byte : stream) {
    std::vector<LineFramer::Event> events;
    framer.Feed(std::string_view(&byte, 1), &events);
    for (LineFramer::Event& event : events) {
      ASSERT_EQ(event.kind, LineFramer::Event::Kind::kLine);
      lines.push_back(std::move(event.line));
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "T:0,1|J:0|P:");
  EXPECT_EQ(lines[1], "ADMIN STATS");
}

TEST(LineFramerTest, OversizeLineEmitsOneEventAndResynchronizes) {
  LineFramer framer(8);
  // 12 bytes before the newline: one kOversize, then clean resync.
  std::vector<LineFramer::Event> events =
      FeedAll(&framer, "0123456789ab\nok\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, LineFramer::Event::Kind::kOversize);
  EXPECT_EQ(events[1].kind, LineFramer::Event::Kind::kLine);
  EXPECT_EQ(events[1].line, "ok");
  EXPECT_FALSE(framer.discarding());
}

TEST(LineFramerTest, OversizeAcrossManyChunksStillOneEvent) {
  LineFramer framer(8);
  size_t oversize_events = 0;
  size_t line_events = 0;
  std::string tail_line;
  // 100 single-byte feeds of garbage, then the newline, then a good line.
  for (int i = 0; i < 100; ++i) {
    std::vector<LineFramer::Event> events;
    framer.Feed("x", &events);
    for (const LineFramer::Event& event : events) {
      if (event.kind == LineFramer::Event::Kind::kOversize) ++oversize_events;
    }
  }
  EXPECT_TRUE(framer.discarding());
  std::vector<LineFramer::Event> events = FeedAll(&framer, "\ngood\n");
  for (const LineFramer::Event& event : events) {
    if (event.kind == LineFramer::Event::Kind::kOversize) ++oversize_events;
    if (event.kind == LineFramer::Event::Kind::kLine) {
      ++line_events;
      tail_line = event.line;
    }
  }
  EXPECT_EQ(oversize_events, 1u);
  EXPECT_EQ(line_events, 1u);
  EXPECT_EQ(tail_line, "good");
}

TEST(LineFramerTest, ExactlyMaxLineBytesIsAccepted) {
  LineFramer framer(4);
  std::vector<LineFramer::Event> events = FeedAll(&framer, "abcd\nabcde\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, LineFramer::Event::Kind::kLine);
  EXPECT_EQ(events[0].line, "abcd");
  EXPECT_EQ(events[1].kind, LineFramer::Event::Kind::kOversize);
}

TEST(LineFramerTest, UnterminatedTailStaysBuffered) {
  LineFramer framer(64);
  const std::vector<LineFramer::Event> events =
      FeedAll(&framer, "done\npartial");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].line, "done");
  // The tail never becomes a line: a disconnect mid-line abandons it (the
  // connection teardown path simply drops the framer).
  EXPECT_EQ(framer.buffered(), 7u);
}

// ---------------------------------------------------------------------------
// Server-backed suites: one small trained model shared by the replay and
// fuzz tests (training dominates runtime, pay it once).

ImdbConfig SmallImdb() {
  ImdbConfig config;
  config.seed = 91;
  config.num_titles = 1500;
  config.num_companies = 250;
  config.num_persons = 1000;
  config.num_keywords = 300;
  return config;
}

class ServeFramingTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(SmallImdb()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 32, 5);

    GeneratorConfig gen_config;
    gen_config.seed = 17;
    QueryGenerator generator(db_, gen_config);
    workload_ = new Workload(
        generator.GenerateLabeled(*executor_, *samples_, 60, "framing-test"));

    MscnConfig config;
    config.hidden_units = 16;
    config.epochs = 2;
    config.batch_size = 32;
    config.seed = 7;
    featurizer_ = new Featurizer(db_, config.variant, samples_->sample_size());
    Trainer trainer(featurizer_, config);
    std::vector<const LabeledQuery*> pointers;
    for (const LabeledQuery& query : workload_->queries) {
      pointers.push_back(&query);
    }
    model_ = new MscnModel(trainer.Train(pointers, {}, nullptr));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete featurizer_;
    delete workload_;
    delete samples_;
    delete executor_;
    delete db_;
    model_ = nullptr;
    featurizer_ = nullptr;
    workload_ = nullptr;
    samples_ = nullptr;
    executor_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
  static Workload* workload_;
  static Featurizer* featurizer_;
  static MscnModel* model_;
};

Database* ServeFramingTest::db_ = nullptr;
Executor* ServeFramingTest::executor_ = nullptr;
SampleSet* ServeFramingTest::samples_ = nullptr;
Workload* ServeFramingTest::workload_ = nullptr;
Featurizer* ServeFramingTest::featurizer_ = nullptr;
MscnModel* ServeFramingTest::model_ = nullptr;

// Response lines embed the measured request latency ("us=87.3"), the one
// nondeterministic token; everything else — including the %.17g estimate
// text — must be byte-identical across replays.
std::string NormalizeLatency(std::string response) {
  const size_t pos = response.find(" us=");
  if (pos == std::string::npos) return response;
  size_t end = pos + 4;
  while (end < response.size() && response[end] != ' ') ++end;
  return response.substr(0, pos) + " us=X" + response.substr(end);
}

// The golden stream: valid queries, CRLF endings, empty and whitespace
// lines, malformed query text, admin lines with deterministic answers
// (no STATS — its counters change between replays; no RETRAIN hook is
// configured so RETRAIN answers a fixed ERR), and an unterminated tail
// that must never be dispatched.
std::string GoldenStream(const Workload& workload) {
  std::string stream;
  stream += workload.queries[0].query.Serialize() + "\n";
  stream += workload.queries[1].query.Serialize() + "\r\n";
  stream += "\n";
  stream += "   \n";
  stream += "garbage\n";
  stream += "T:1x|J:|P:\n";
  stream += "T:9999|J:|P:\r\n";
  stream += "ADMIN BOGUS\n";
  stream += "ADMIN retrain now\n";
  stream += "ADMIN RETRAIN\n";  // ERR Unimplemented: no hook configured.
  stream += workload.queries[2].query.Serialize() + "\n";
  stream += "T:0|J";  // Unterminated: abandoned, never answered.
  return stream;
}

TEST_F(ServeFramingTest, EverySplitPointReplaysByteIdentically) {
  // cache_capacity=0: a populated result cache would flip cache=miss to
  // cache=hit between replays and break the byte comparison.
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  const std::string stream = GoldenStream(*workload_);

  // Reference pass: frame the whole stream as one chunk.
  std::vector<std::string> golden_lines;
  {
    LineFramer framer(1 << 16);
    std::vector<LineFramer::Event> events;
    framer.Feed(stream, &events);
    for (const LineFramer::Event& event : events) {
      ASSERT_EQ(event.kind, LineFramer::Event::Kind::kLine);
      golden_lines.push_back(event.line);
    }
  }
  ASSERT_EQ(golden_lines.size(), 11u);
  std::vector<std::string> golden_responses;
  for (const std::string& line : golden_lines) {
    golden_responses.push_back(NormalizeLatency(server.HandleLine(line)));
  }
  EXPECT_TRUE(StartsWith(golden_responses[0], "EST "));
  EXPECT_TRUE(StartsWith(golden_responses[2], "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(golden_responses[9], "ERR Unimplemented"));

  // Exhaustive split replay: the stream cut at every possible boundary
  // must frame the same lines and draw the same responses.
  for (size_t split = 0; split <= stream.size(); ++split) {
    LineFramer framer(1 << 16);
    std::vector<LineFramer::Event> events;
    framer.Feed(std::string_view(stream).substr(0, split), &events);
    framer.Feed(std::string_view(stream).substr(split), &events);
    const std::vector<std::string> lines = LinesOf(events);
    ASSERT_EQ(lines, golden_lines) << "split at byte " << split;
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string response =
          NormalizeLatency(server.HandleLine(lines[i]));
      ASSERT_EQ(response, golden_responses[i])
          << "split at byte " << split << ", line " << i;
    }
  }
}

// One well-formed response line: non-empty, typed prefix, no embedded
// newline or control characters (a smuggled newline would desynchronize
// every pipelined client behind it).
void ExpectWellFormedResponse(const std::string& response,
                              const std::string& input) {
  ASSERT_FALSE(response.empty()) << "input: " << input;
  ASSERT_TRUE(StartsWith(response, "EST ") || StartsWith(response, "ERR ") ||
              StartsWith(response, "OK"))
      << "response: " << response << "\ninput: " << input;
  for (char byte : response) {
    ASSERT_FALSE(byte == '\n' || byte == '\r' || byte == '\0')
        << "control byte in response to input: " << input;
  }
}

TEST_F(ServeFramingTest, FuzzCorpusAlwaysDrawsOneWellFormedResponse) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/32);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  std::vector<std::string> seeds;
  for (size_t i = 0; i < 8 && i < workload_->queries.size(); ++i) {
    seeds.push_back(workload_->queries[i].query.Serialize());
  }
  seeds.push_back("ADMIN STATS");
  seeds.push_back("ADMIN RETRAIN");
  seeds.push_back("T:0,1|J:0|P:0.1>2005");

  Rng rng(20260808);
  const std::string charset =
      "0123456789TJPADMIN:|,.<>=xyz \t\x01\x1f\x7f\xff";
  size_t est_lines = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string line = seeds[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(seeds.size()) - 1))];
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.UniformInt(0, 5)) {
        case 0:  // Truncate at a random byte.
          if (!line.empty()) {
            line.resize(static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(line.size()) - 1)));
          }
          break;
        case 1: {  // Insert a random (possibly control) character.
          const size_t pos = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(line.size())));
          line.insert(line.begin() + static_cast<ptrdiff_t>(pos),
                      charset[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(charset.size()) - 1))]);
          break;
        }
        case 2: {  // Overflowing integer where a digit run lives.
          const size_t pos = line.find_first_of("0123456789");
          if (pos != std::string::npos) {
            line.insert(pos, "99999999999999999999");
          }
          break;
        }
        case 3: {  // Duplicate a |-delimited field.
          const size_t bar = line.find('|');
          if (bar != std::string::npos) {
            line += line.substr(bar);
          }
          break;
        }
        case 4: {  // Flip one byte.
          if (!line.empty()) {
            const size_t pos = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(line.size()) - 1));
            line[pos] = static_cast<char>(rng.UniformInt(1, 255));
          }
          break;
        }
        case 5:  // Append trailing junk.
          line += charset.substr(
              static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(charset.size()) - 1)),
              3);
          break;
      }
    }
    // The one byte the line protocol cannot carry: the framer would have
    // split this into two lines before HandleLine ever saw it.
    for (char& byte : line) {
      if (byte == '\n') byte = ' ';
    }
    const std::string response = server.HandleLine(line);
    ExpectWellFormedResponse(response, line);
    if (StartsWith(response, "EST ")) ++est_lines;
  }
  // The corpus is mutation-based, so some seeds survive intact: the suite
  // exercises the success path too, not just rejections.
  EXPECT_GT(est_lines, 0u);

  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.received,
            stats.served + stats.rejected_malformed +
                stats.rejected_overload + stats.rejected_shutdown +
                stats.admin_requests);
}

}  // namespace
}  // namespace lc
