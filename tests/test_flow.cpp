#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "flow/csv.hpp"
#include "flow/record.hpp"
#include "flow/trace_gen.hpp"

namespace ddpm::flow {
namespace {

FlowRecord sample_record() {
  FlowRecord r;
  r.src = 0xC0A80002;
  r.dst = 0xC0A80001;
  r.bytes = 12345;
  r.packets = 17;
  r.first_ts = 1000;
  r.last_ts = 2000;
  r.proto = 6;
  r.attack = false;
  return r;
}

// Reference parser: the straightforward implementation of
// flow::parse_csv_line and flow::read_csv (std::getline, eight
// std::string scratch slots, unescaping, std::from_chars). Test-only
// code: it is the oracle the differential tests below hold the in-place
// block scanner to, line for line and stream for stream.
namespace oracle {

template <typename T>
bool parse_field(std::string_view field, T& out) {
  if (field.empty()) return false;
  const char* first = field.data();
  const char* last = first + field.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool take_field(std::string_view& line, bool& more, std::string& scratch,
                std::string_view& out) {
  if (!line.empty() && line.front() == '"') {
    bool escaped = false;
    std::size_t i = 1;
    for (; i < line.size(); ++i) {
      if (line[i] != '"') continue;
      if (i + 1 < line.size() && line[i + 1] == '"') {
        escaped = true;
        ++i;  // consume the doubled quote
        continue;
      }
      break;  // lone quote closes the field
    }
    if (i >= line.size()) return false;  // unterminated quote
    const std::string_view body = line.substr(1, i - 1);
    const std::string_view rest = line.substr(i + 1);
    if (!rest.empty() && rest.front() != ',') return false;
    more = !rest.empty();
    line = more ? rest.substr(1) : std::string_view{};
    if (escaped) {
      scratch.clear();
      for (std::size_t j = 0; j < body.size(); ++j) {
        scratch.push_back(body[j]);
        if (body[j] == '"') ++j;  // collapse the doubling
      }
      out = scratch;
    } else {
      out = body;
    }
    return true;
  }
  const std::size_t comma = line.find(',');
  more = comma != std::string_view::npos;
  out = more ? line.substr(0, comma) : line;
  line = more ? line.substr(comma + 1) : std::string_view{};
  return true;
}

bool parse_csv_line(std::string_view line, FlowRecord& out) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string, 8> scratch;
  std::string_view fields[8];
  bool more = true;
  for (std::size_t i = 0; i < 8; ++i) {
    if (!take_field(line, more, scratch[i], fields[i])) return false;
  }
  if (more && !line.empty()) return false;
  FlowRecord r;
  std::uint32_t proto = 0;
  if (!parse_field(fields[0], r.src) || !parse_field(fields[1], r.dst) ||
      !parse_field(fields[2], r.bytes) || !parse_field(fields[3], r.packets) ||
      !parse_field(fields[4], r.first_ts) ||
      !parse_field(fields[5], r.last_ts) || !parse_field(fields[6], proto) ||
      proto > 255 || fields[7].empty()) {
    return false;
  }
  r.proto = static_cast<std::uint8_t>(proto);
  r.attack = fields[7] != kBenignLabel;
  out = r;
  return true;
}

CsvStats read_csv(std::istream& in, const RecordSink& sink) {
  CsvStats stats;
  std::string line;
  bool first_line = true;
  netsim::SimTime prev_ts = 0;
  while (std::getline(in, line)) {
    std::string_view view(line);
    if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    if (first_line) {
      first_line = false;
      if (view == kCsvHeader) {
        stats.header_ok = true;
        continue;
      }
    }
    if (view.empty()) continue;
    ++stats.lines;
    FlowRecord record;
    if (!oracle::parse_csv_line(view, record)) {
      ++stats.malformed;
      continue;
    }
    if (stats.records > 0 && record.first_ts < prev_ts) ++stats.out_of_order;
    prev_ts = record.first_ts;
    ++stats.records;
    if (sink) sink(record);
  }
  return stats;
}

}  // namespace oracle

/// Deterministic xorshift64 stream for the fuzzers below.
struct Xorshift {
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  std::size_t below(std::size_t n) { return std::size_t((*this)() % n); }
};

struct ReadResult {
  CsvStats stats;
  std::vector<FlowRecord> records;
  bool eof = false;
};

ReadResult read_with(CsvStats (*reader)(std::istream&, const RecordSink&),
                     const std::string& text) {
  std::istringstream in(text);
  ReadResult out;
  out.stats = reader(in, [&](const FlowRecord& r) { out.records.push_back(r); });
  out.eof = in.eof();
  return out;
}

/// Reads `text` with the production scanner and the oracle; both must
/// agree on every statistic and every record, and leave the stream at EOF.
ReadResult expect_reader_matches_oracle(const std::string& text) {
  const ReadResult got = read_with(&read_csv, text);
  const ReadResult want = read_with(&oracle::read_csv, text);
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.records, want.records);
  EXPECT_TRUE(got.eof);
  return got;
}

TEST(CsvParse, RoundTripsOneLine) {
  const FlowRecord r = sample_record();
  std::ostringstream os;
  write_csv(os, {r});
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], r);
}

TEST(CsvParse, AttackLabelRoundTrips) {
  FlowRecord r = sample_record();
  r.attack = true;
  std::ostringstream os;
  write_csv(os, {r});
  EXPECT_NE(os.str().find("ATTACK"), std::string::npos);
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].attack);
  EXPECT_EQ(parsed[0], r);
}

TEST(CsvParse, EmptyFile) {
  std::istringstream is("");
  const CsvStats stats = read_csv(is, [](const FlowRecord&) { FAIL(); });
  EXPECT_FALSE(stats.header_ok);
  EXPECT_EQ(stats.lines, 0u);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, HeaderOnly) {
  std::istringstream is(std::string(kCsvHeader) + "\n");
  const CsvStats stats = read_csv(is, [](const FlowRecord&) { FAIL(); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, MalformedLinesAreCountedAndSkipped) {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  os << "1,2,3,4,5,6,17,BENIGN\n";        // good
  os << "1,2,3,4,5\n";                    // truncated
  os << "a,b,c,d,e,f,g,h\n";              // garbage
  os << "1,2,3,4,5,6,999,BENIGN\n";       // proto overflow
  os << "1,2,3,4,5,6,17,\n";              // empty label
  os << "1,2,3,4,5,6,17,BENIGN,extra\n";  // extra field
  os << "9,8,7,6,5,4,3,DDoS\n";           // good (attack)
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_EQ(stats.lines, 7u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.malformed, 5u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(parsed[0].attack);
  EXPECT_TRUE(parsed[1].attack);
}

TEST(CsvParse, BlankLinesAndCrlfTolerated) {
  std::istringstream is(std::string(kCsvHeader) +
                        "\r\n1,2,3,4,5,6,17,BENIGN\r\n\n");
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, OutOfOrderTimestampsCounted) {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  os << "1,2,3,4,500,600,17,BENIGN\n";
  os << "1,2,3,4,100,200,17,BENIGN\n";  // earlier than predecessor
  os << "1,2,3,4,700,800,17,BENIGN\n";
  std::istringstream is(os.str());
  const CsvStats stats = read_csv(is, [](const FlowRecord&) {});
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.out_of_order, 1u);
}

TEST(CsvParse, RejectsObviousGarbage) {
  FlowRecord r;
  EXPECT_FALSE(parse_csv_line("", r));
  EXPECT_FALSE(parse_csv_line(",,,,,,,", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17", r));
  EXPECT_FALSE(parse_csv_line("-1,2,3,4,5,6,17,BENIGN", r));
  EXPECT_FALSE(parse_csv_line("1.5,2,3,4,5,6,17,BENIGN", r));
  EXPECT_FALSE(parse_csv_line("99999999999,2,3,4,5,6,17,BENIGN", r));  // u32 overflow
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN\r", r));
}

TEST(CsvParse, QuotedFieldsWithCommasAndEscapedQuotes) {
  FlowRecord r;
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"BENIGN\"", r));
  EXPECT_FALSE(r.attack);
  // A quoted label may contain commas without growing the field count.
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"DDoS, stage 2\"", r));
  EXPECT_TRUE(r.attack);
  // Quoting works on numeric fields too.
  EXPECT_TRUE(parse_csv_line("\"1\",\"2\",3,4,5,6,17,BENIGN", r));
  EXPECT_EQ(r.src, 1u);
  EXPECT_EQ(r.dst, 2u);
  // Doubled quotes escape a literal quote inside a quoted field.
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"say \"\"hi\"\"\"", r));
  EXPECT_TRUE(r.attack);
  // Unterminated quote, junk after the closing quote, quoted-empty label.
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"oops", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"x\"y", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"\"", r));
}

TEST(CsvParse, TrailingDelimiterTolerated) {
  FlowRecord r;
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,", r));
  EXPECT_FALSE(r.attack);
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"BENIGN\",", r));
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,\r", r));
  // But only ONE trailing delimiter — more than that is a ninth field.
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,,", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,x", r));
}

TEST(CsvFuzz, EdgeCaseSerializationsRoundTrip) {
  TraceGenConfig config;
  config.seed = 99;
  config.duration = 30'000;
  config.attack_start = 5'000;
  config.attack_duration = 20'000;
  const std::vector<FlowRecord> records = TraceGenerator(config).generate();
  ASSERT_GT(records.size(), 200u);

  // Re-serialize by hand with deterministic edge-case decorations: CRLF
  // line endings, quoted label (and sometimes src) fields, and trailing
  // delimiters. The parser must see through every combination.
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::ostringstream os;
  os << kCsvHeader << "\r\n";
  for (const FlowRecord& r : records) {
    if (next() % 4 == 0) {
      os << '"' << r.src << '"';
    } else {
      os << r.src;
    }
    os << ',' << r.dst << ',' << r.bytes << ',' << r.packets << ','
       << r.first_ts << ',' << r.last_ts << ',' << unsigned(r.proto) << ',';
    const std::string_view label = r.attack ? "ATTACK" : kBenignLabel;
    switch (next() % 3) {
      case 0: os << label; break;
      case 1: os << '"' << label << '"'; break;
      case 2: os << label << ','; break;  // trailing delimiter
    }
    os << (next() % 2 ? "\r\n" : "\n");
  }
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(parsed, records);
}

TEST(CsvFuzz, GenerateWriteParseRoundTripsByteIdentically) {
  TraceGenConfig config;
  config.seed = 77;
  config.duration = 50'000;
  config.attack_sources = 2'000;
  config.attack_start = 10'000;
  config.attack_duration = 20'000;
  const std::vector<FlowRecord> records = TraceGenerator(config).generate();
  ASSERT_GT(records.size(), 500u);

  std::ostringstream os;
  write_csv(os, records);
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(parsed, records);

  // And the re-serialization is byte-identical too.
  std::ostringstream os2;
  write_csv(os2, parsed);
  EXPECT_EQ(os.str(), os2.str());
}

/// A valid line with independently drawn fields, in the shapes real
/// exporters emit (plain, quoted, padded with leading zeros).
std::vector<std::string> valid_fields(Xorshift& rng) {
  std::vector<std::string> f;
  for (int i = 0; i < 7; ++i) {
    std::uint64_t v = rng();
    if (i < 2 || i == 3) v &= 0xffff'ffffull;  // 32-bit src, dst, packets
    if (i == 6) v %= 256;                     // proto
    if (rng.below(3) == 0) v %= 1000;
    f.push_back(std::to_string(v));
  }
  static constexpr std::string_view kLabels[] = {"BENIGN", "ATTACK", "DDoS",
                                                 "BENIGNX", "B"};
  f.emplace_back(kLabels[rng.below(std::size(kLabels))]);
  return f;
}

/// Field values at the edges of what the numeric columns accept.
constexpr std::string_view kEdgeValues[] = {
    "0000000000000000000000042",  // 25 digits, leading zeros
    "0000000000000000000000000",
    "18446744073709551615",       // UINT64_MAX
    "18446744073709551616",       // UINT64_MAX + 1
    "000018446744073709551615",
    "4294967295",                 // UINT32_MAX
    "4294967296",                 // 32-bit overflow
    "256",                        // proto overflow
    "255",
    "00256",
    "+5",
    "-0",
    " 7",
    "7 ",
    "",
    "\"12\"",
    "\"1\"\"2\"",
    "\"\"",
    "\"BENIGN\"",
    "\"BEN\"\"IGN\"",
    "\"a,b\"",
    "\"",
};

std::string join_fields(const std::vector<std::string>& f) {
  std::string line;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i != 0) line += ',';
    line += f[i];
  }
  return line;
}

/// One fuzz line: random text over the CSV alphabet, or a valid line with
/// an edge value spliced in and/or a byte-level mutation.
std::string fuzz_line(Xorshift& rng) {
  static constexpr std::string_view kAlphabet = "0123456789,\"\r +-BENIGATCKD";
  if (rng.below(4) == 0) {
    std::string line(rng.below(48), ' ');
    for (char& c : line) c = kAlphabet[rng.below(kAlphabet.size())];
    return line;
  }
  std::vector<std::string> f = valid_fields(rng);
  for (std::size_t edits = rng.below(3); edits > 0; --edits) {
    f[rng.below(f.size())] = kEdgeValues[rng.below(std::size(kEdgeValues))];
  }
  if (rng.below(4) == 0) f.emplace_back(rng.below(2) ? "" : "x");
  std::string line = join_fields(f);
  switch (rng.below(6)) {
    case 0:  // replace a byte
      if (!line.empty()) {
        line[rng.below(line.size())] = kAlphabet[rng.below(kAlphabet.size())];
      }
      break;
    case 1:  // insert a byte
      line.insert(line.begin() + std::ptrdiff_t(rng.below(line.size() + 1)),
                  kAlphabet[rng.below(kAlphabet.size())]);
      break;
    case 2:  // delete a byte
      if (!line.empty()) line.erase(rng.below(line.size()), 1);
      break;
    case 3:
      line += '\r';
      break;
    default:
      break;
  }
  return line;
}

TEST(CsvReaderFuzz, ParserMatchesOracleOnEveryLine) {
  Xorshift rng;
  std::uint64_t accepted = 0;
  constexpr int kLines = 150'000;
  for (int n = 0; n < kLines; ++n) {
    const std::string line = fuzz_line(rng);
    FlowRecord got;
    FlowRecord want;
    const bool got_ok = parse_csv_line(line, got);
    const bool want_ok = oracle::parse_csv_line(line, want);
    ASSERT_EQ(got_ok, want_ok) << "line: " << line;
    if (want_ok) {
      ASSERT_EQ(got, want) << "line: " << line;
      ++accepted;
    }
  }
  // Both verdicts are well represented, so neither side is vacuous.
  EXPECT_GT(accepted, std::uint64_t(kLines / 10));
  EXPECT_LT(accepted, std::uint64_t(kLines * 9 / 10));
}

TEST(CsvReaderFuzz, NumericEdgesMatchFromChars) {
  const std::string tail = ",2,3,4,5,6,17,BENIGN";
  for (const std::string_view v : kEdgeValues) {
    for (const std::string& line :
         {std::string(v) + tail, "1,2," + std::string(v) + ",4,5,6,17,BENIGN",
          "1,2,3,4,5,6," + std::string(v) + ",BENIGN"}) {
      FlowRecord got;
      FlowRecord want;
      const bool want_ok = oracle::parse_csv_line(line, want);
      ASSERT_EQ(parse_csv_line(line, got), want_ok) << line;
      if (want_ok) {
        EXPECT_EQ(got, want) << line;
      }
    }
  }
  FlowRecord r;
  EXPECT_TRUE(parse_csv_line("1,2,0000000000000000000000042,4,5,6,17,B", r));
  EXPECT_EQ(r.bytes, 42u);
  EXPECT_TRUE(parse_csv_line("1,2,18446744073709551615,4,5,6,17,B", r));
  EXPECT_EQ(r.bytes, UINT64_MAX);
  EXPECT_FALSE(parse_csv_line("1,2,18446744073709551616,4,5,6,17,B", r));
  EXPECT_FALSE(parse_csv_line("4294967296,2,3,4,5,6,17,B", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,256,B", r));
}

/// Records with varied field widths, so line ends fall on every offset.
std::string csv_lines(std::size_t n, std::uint64_t seed) {
  Xorshift rng{seed};
  std::string text;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> f = valid_fields(rng);
    f[4] = std::to_string(i * 3);  // first_ts, mostly in order
    if (i % 50 == 7) f[4] = "1";   // and the odd straggler
    text += join_fields(f);
    text += (i % 5 == 0) ? "\r\n" : "\n";
  }
  return text;
}

constexpr std::size_t kBlock = std::size_t{64} << 10;  // the scanner's block

TEST(CsvReader, LargeInputAcrossBlockEdges) {
  const std::string header = std::string(kCsvHeader) + "\n";
  // A first data line whose '\n' lands just before, on, and just after the
  // first block edge; the \r\n pair straddles the edge when shift == 0.
  const std::string prefix = "1,2,3,4,5,6,17,";
  for (const int shift : {-2, -1, 0, 1, 2}) {
    const std::size_t label =
        kBlock + std::size_t(shift) - header.size() - prefix.size() - 1;
    std::string text = header + prefix + std::string(label, 'A') + "\r\n";
    ASSERT_EQ(text.size(), kBlock + std::size_t(shift) + 1);
    text += csv_lines(4'000, 11 + std::uint64_t(shift));
    ASSERT_GT(text.size(), 2 * kBlock);
    const ReadResult r = expect_reader_matches_oracle(text);
    EXPECT_TRUE(r.stats.header_ok);
    EXPECT_EQ(r.stats.lines, 4'001u);
    EXPECT_EQ(r.stats.records, 4'001u);
    EXPECT_EQ(r.stats.malformed, 0u);
    // 80 stragglers, plus the first generated line (ts 0) after the
    // padded one (ts 5).
    EXPECT_EQ(r.stats.out_of_order, 81u);
    EXPECT_TRUE(r.records.front().attack);
  }
}

TEST(CsvReader, CrlfAndNoFinalNewline) {
  const std::string text = std::string(kCsvHeader) +
                           "\r\n1,2,3,4,5,6,17,BENIGN\r\n9,8,7,6,5,4,3,DDoS";
  const ReadResult r = expect_reader_matches_oracle(text);
  EXPECT_TRUE(r.stats.header_ok);
  EXPECT_EQ(r.stats, (CsvStats{2, 2, 0, 0, true}));
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_FALSE(r.records[0].attack);
  EXPECT_TRUE(r.records[1].attack);
  EXPECT_EQ(r.records[1].src, 9u);
  // A final line cut off after its '\r' is still one record.
  const ReadResult cut =
      expect_reader_matches_oracle("1,2,3,4,5,6,17,BENIGN\r");
  EXPECT_EQ(cut.stats, (CsvStats{1, 1, 0, 0, false}));
}

TEST(CsvReader, LineLongerThanTheBlock) {
  const std::string long_label(3 * kBlock + 17, 'Z');
  const std::string text = std::string(kCsvHeader) + "\n1,2,3,4,5,6,17," +
                           long_label + "\n" + std::string(2 * kBlock, '9') +
                           "\n4,5,6,7,8,9,10,BENIGN";
  const ReadResult r = expect_reader_matches_oracle(text);
  EXPECT_EQ(r.stats, (CsvStats{3, 2, 1, 0, true}));
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_TRUE(r.records[0].attack);
  EXPECT_EQ(r.records[1].src, 4u);
}

TEST(CsvReader, HeaderOnlyHeaderlessAndBlankLines) {
  EXPECT_EQ(expect_reader_matches_oracle(std::string(kCsvHeader)).stats,
            (CsvStats{0, 0, 0, 0, true}));
  EXPECT_EQ(expect_reader_matches_oracle(std::string(kCsvHeader) + "\r\n")
                .stats,
            (CsvStats{0, 0, 0, 0, true}));
  EXPECT_EQ(expect_reader_matches_oracle("").stats, CsvStats{});
  // Headerless: the first line is data.
  const ReadResult headerless = expect_reader_matches_oracle(
      "1,2,3,4,50,6,17,BENIGN\n1,2,3,4,40,6,17,BENIGN\n");
  EXPECT_EQ(headerless.stats, (CsvStats{2, 2, 0, 1, false}));
  // Blank lines are skipped, but only the very first line can be the
  // header: after a leading blank line the header row is a bad data line.
  const ReadResult blanks = expect_reader_matches_oracle(
      "\n" + std::string(kCsvHeader) +
      "\n\n\r\n1,2,3,4,5,6,17,BENIGN\n\n");
  EXPECT_EQ(blanks.stats, (CsvStats{2, 1, 1, 0, false}));
  const ReadResult blank_tail = expect_reader_matches_oracle(
      std::string(kCsvHeader) + "\n1,2,3,4,5,6,17,BENIGN\n\n\n\r\n");
  EXPECT_EQ(blank_tail.stats, (CsvStats{1, 1, 0, 0, true}));
}

TEST(CsvReader, FuzzedStreamsMatchOracle) {
  Xorshift rng{0x9e3779b97f4a7c15ull};
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = rng.below(2) ? std::string(kCsvHeader) + "\n" : "";
    const std::size_t lines = 1 + rng.below(trial < 4 ? 6'000 : 200);
    for (std::size_t i = 0; i < lines; ++i) {
      text += fuzz_line(rng);
      if (i + 1 < lines || rng.below(2)) text += '\n';
    }
    expect_reader_matches_oracle(text);
  }
}

TEST(TraceGen, DeterministicAcrossInstances) {
  TraceGenConfig config;
  config.seed = 42;
  config.duration = 30'000;
  const std::vector<FlowRecord> a = TraceGenerator(config).generate();
  const std::vector<FlowRecord> b = TraceGenerator(config).generate();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
}

TEST(TraceGen, TimestampsNonDecreasing) {
  TraceGenConfig config;
  config.seed = 7;
  config.duration = 50'000;
  config.attack_start = 10'000;
  config.attack_duration = 30'000;
  TraceGenerator gen(config);
  FlowRecord r;
  netsim::SimTime prev = 0;
  while (gen.next(r)) {
    EXPECT_GE(r.first_ts, prev);
    EXPECT_GE(r.last_ts, r.first_ts);
    EXPECT_LT(r.first_ts, config.duration);
    prev = r.first_ts;
  }
}

TEST(TraceGen, FloodEmitsDistinctSpoofedSources) {
  TraceGenConfig config;
  config.seed = 3;
  config.duration = 100'000;
  config.attack = AttackShape::kFlood;
  config.attack_sources = 5'000;
  config.attack_start = 0;
  config.attack_duration = 100'000;
  config.attack_rate = 0.2;  // ~20k attack flows > 5k sources: wraps the pool
  config.benign_rate = 0.001;
  TraceGenerator gen(config);
  FlowRecord r;
  std::set<std::uint32_t> attack_sources;
  std::uint64_t attack_flows = 0;
  while (gen.next(r)) {
    if (!r.attack) continue;
    ++attack_flows;
    attack_sources.insert(r.src);
    EXPECT_EQ(r.dst, config.victim);
    EXPECT_GE(r.first_ts, config.attack_start);
    EXPECT_LT(r.first_ts, config.attack_start + config.attack_duration);
  }
  ASSERT_GT(attack_flows, std::uint64_t(config.attack_sources));
  // The pool wrapped, so every one of the configured sources appeared.
  EXPECT_EQ(attack_sources.size(), std::size_t(config.attack_sources));
}

TEST(TraceGen, PulseLeavesGaps) {
  TraceGenConfig config;
  config.seed = 5;
  config.duration = 200'000;
  config.attack = AttackShape::kPulse;
  config.attack_start = 0;
  config.attack_duration = 200'000;
  config.pulse_period = 50'000;
  config.pulse_duty = 0.2;
  config.benign_rate = 0.0001;
  TraceGenerator gen(config);
  FlowRecord r;
  while (gen.next(r)) {
    if (!r.attack) continue;
    // Attack flows appear only in the first 20% of each period.
    const netsim::SimTime phase = r.first_ts % config.pulse_period;
    EXPECT_LT(phase, netsim::SimTime(0.2 * double(config.pulse_period)) + 1);
  }
}

TEST(TraceGen, ScrambleIsInjectiveOnSample) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    seen.insert(TraceGenerator::scramble(i));
  }
  EXPECT_EQ(seen.size(), 100'000u);
}

TEST(TraceGen, BenignOnlyHasNoAttackRecords) {
  TraceGenConfig config;
  config.seed = 11;
  config.duration = 50'000;
  config.attack = AttackShape::kNone;
  TraceGenerator gen(config);
  FlowRecord r;
  std::uint64_t n = 0;
  while (gen.next(r)) {
    EXPECT_FALSE(r.attack);
    ++n;
  }
  EXPECT_GT(n, 100u);
  EXPECT_EQ(n, gen.emitted());
}

TEST(FlowRecordLayout, StaysPacked) {
  static_assert(sizeof(FlowRecord) == 40);
  static_assert(alignof(FlowRecord) == 8);
}

}  // namespace
}  // namespace ddpm::flow
