#include "flow/csv.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace ddpm::flow {

namespace {

/// Strict unsigned-decimal field parse: the whole field must be digits and
/// fit the destination type. Accepts exactly what std::from_chars accepts
/// for an unsigned type (any number of leading zeros, no sign, no space),
/// with one checked multiply-add per digit.
template <typename T>
bool parse_field(std::string_view field, T& out) {
  // A signed T would part ways with from_chars, which takes a leading '-'.
  static_assert(std::is_unsigned_v<T>, "parse_field: unsigned types only");
  if (field.empty()) return false;
  T value = 0;
  for (const char c : field) {
    const auto digit = static_cast<unsigned char>(c - '0');
    if (digit > 9) return false;
    if (__builtin_mul_overflow(value, T{10}, &value) ||
        __builtin_add_overflow(value, T(digit), &value)) {
      return false;
    }
  }
  out = value;
  return true;
}

/// Splits the next field off the line at `p` (ending at `end`) into `out`
/// and advances `p` past it and its comma; `more` reports whether a comma
/// was consumed. A field wrapped in double quotes may contain commas, and
/// a doubled `""` inside is an escaped quote. The field is returned raw,
/// still escaped: an escape makes a numeric field non-numeric and a label
/// non-empty and not BENIGN whether or not it is collapsed, so nothing
/// needs unescaping. Returns false on a malformed field (unterminated
/// quote, or junk between the closing quote and the next comma).
bool take_field(const char*& p, const char* end, bool& more,
                std::string_view& out) {
  const char* first = p;
  const char* last = p;  // one past the field's last character
  if (first != end && *first == '"') {
    ++first;
    for (last = first; last != end; ++last) {
      if (*last != '"') continue;
      if (last + 1 != end && last[1] == '"') {
        ++last;  // skip the doubled quote
        continue;
      }
      break;  // lone quote closes the field
    }
    if (last == end) return false;  // unterminated quote
    p = last + 1;
    if (p != end && *p != ',') return false;
  } else {
    while (last != end && *last != ',') ++last;
    p = last;
  }
  out = std::string_view(first, static_cast<std::size_t>(last - first));
  more = p != end;
  if (more) ++p;  // the comma
  return true;
}

}  // namespace

bool parse_csv_line(std::string_view line, FlowRecord& out) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const char* p = line.data();
  const char* const end = p + line.size();
  std::string_view fields[8];
  bool more = true;
  for (std::string_view& field : fields) {
    if (!take_field(p, end, more, field)) return false;
  }
  // Exactly eight fields. One trailing delimiter (a common exporter
  // artifact) is tolerated, but anything after it is a ninth field.
  if (more && p != end) return false;
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
  bool first_line = true;
  netsim::SimTime prev_ts = 0;
  const auto on_line = [&](std::string_view view) {
    if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    if (first_line) {
      first_line = false;
      if (view == kCsvHeader) {
        stats.header_ok = true;
        return;  // header row is not a data line
      }
      // Headerless input: fall through and treat it as data.
    }
    if (view.empty()) return;  // blank lines (trailing newline) are noise
    ++stats.lines;
    FlowRecord record;
    if (!parse_csv_line(view, record)) {
      ++stats.malformed;
      return;
    }
    if (stats.records > 0 && record.first_ts < prev_ts) ++stats.out_of_order;
    prev_ts = record.first_ts;
    ++stats.records;
    if (sink) sink(record);
  };

  // Lines are scanned in place inside fixed blocks; only a line that
  // straddles two blocks is copied, into `carry`.
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  std::streambuf* const buf = in.good() ? in.rdbuf() : nullptr;
  if (buf != nullptr) {
    std::vector<char> block(kBlock);
    std::string carry;
    for (;;) {
      const std::streamsize got =
          buf->sgetn(block.data(), static_cast<std::streamsize>(kBlock));
      if (got <= 0) break;
      const char* p = block.data();
      const char* const end = p + got;
      while (p < end) {
        const auto* nl = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        if (nl == nullptr) {
          carry.append(p, end);
          break;
        }
        if (carry.empty()) {
          on_line(std::string_view(p, static_cast<std::size_t>(nl - p)));
        } else {
          carry.append(p, nl);
          on_line(carry);
          carry.clear();
        }
        p = nl + 1;
      }
    }
    if (!carry.empty()) on_line(carry);  // no final newline
  }
  // Leave the stream where a std::getline loop would: at end of file.
  in.setstate(std::ios::eofbit | std::ios::failbit);
  return stats;
}

CsvStats read_csv_file(const std::string& path, const RecordSink& sink) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("flow::read_csv_file: cannot open " + path);
  return read_csv(in, sink);
}

std::vector<FlowRecord> read_csv_file(const std::string& path,
                                      CsvStats* stats) {
  std::vector<FlowRecord> records;
  const CsvStats s = read_csv_file(
      path, [&records](const FlowRecord& r) { records.push_back(r); });
  if (stats != nullptr) *stats = s;
  return records;
}

void write_csv(std::ostream& out, const std::vector<FlowRecord>& records) {
  out << kCsvHeader << '\n';
  for (const FlowRecord& r : records) {
    out << r.src << ',' << r.dst << ',' << r.bytes << ',' << r.packets << ','
        << r.first_ts << ',' << r.last_ts << ',' << unsigned(r.proto) << ','
        << (r.attack ? "ATTACK" : kBenignLabel) << '\n';
  }
}

void write_csv_file(const std::string& path,
                    const std::vector<FlowRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("flow::write_csv_file: cannot open " + path);
  }
  write_csv(out, records);
}

}  // namespace ddpm::flow
