#include "trace/trace_reader.hpp"

#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "machines/machine_config.hpp"
#include "trace/binary_sink.hpp"

namespace afs {
namespace {

std::uint64_t u64_of_bits(std::uint64_t b, double& out) {
  std::memcpy(&out, &b, sizeof out);
  return b;
}

// JSON string escaping: our identifiers are ASCII, but machine and
// program names are caller-supplied.
void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Builds one flat JSON object, key by key, in the order fields are added.
class JsonLine {
 public:
  explicit JsonLine(TraceEv ev) { str("ev", to_string(ev)); }

  JsonLine& str(const char* key, std::string_view v) {
    append_quoted(field(key), v);
    return *this;
  }
  JsonLine& num(const char* key, std::int64_t v) {
    field(key) += std::to_string(v);
    return *this;
  }
  /// Precision 17: enough digits for every double to parse back exactly.
  JsonLine& real(const char* key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key) += buf;
    return *this;
  }
  std::string finish() { return text_ + '}'; }

 private:
  std::string& field(const char* key) {
    text_ += text_.empty() ? "{\"" : ",\"";
    text_ += key;
    text_ += "\":";
    return text_;
  }

  std::string text_;
};

}  // namespace

TraceReader::TraceReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_), context_(path) {
  if (!file_) throw std::runtime_error("cannot open trace: " + path);
  read_header();
}

TraceReader::TraceReader(std::istream& in) : in_(&in), context_("<stream>") {
  read_header();
}

void TraceReader::fail(const std::string& what) const {
  throw std::runtime_error("malformed trace (" + context_ + ", record " +
                           std::to_string(records_) + "): " + what);
}

void TraceReader::read_header() {
  if (in_->peek() == std::istream::traits_type::eof()) fail("empty trace");
  unsigned char header[sizeof BinaryTraceSink::kMagic];
  in_->read(reinterpret_cast<char*>(header), sizeof header);
  if (static_cast<std::size_t>(in_->gcount()) != sizeof header ||
      std::memcmp(header, "CCTR", 4) != 0)
    fail("not a trace: bad magic");
  if (header[4] != BinaryTraceSink::kMagic[4])
    fail("unsupported .cctrace version " + std::to_string(header[4]));
}

std::uint8_t TraceReader::read_u8() {
  const int c = in_->get();
  if (c == std::istream::traits_type::eof()) fail("unexpected end of stream");
  return static_cast<std::uint8_t>(c);
}

std::uint64_t TraceReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = read_u8();
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0))
      fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::int64_t TraceReader::read_svarint() {
  const std::uint64_t z = read_varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double TraceReader::read_time() {
  prev_time_bits_ ^= read_varint();
  double out;
  u64_of_bits(prev_time_bits_, out);
  return out;
}

double TraceReader::read_value() {
  prev_value_bits_ ^= read_varint();
  double out;
  u64_of_bits(prev_value_bits_, out);
  return out;
}

bool TraceReader::next(TraceRecord& rec) {
  rec = TraceRecord{};
  for (;;) {
    const int c = in_->get();
    if (c == std::istream::traits_type::eof()) return false;  // clean end
    const auto opcode = static_cast<std::uint8_t>(c);
    if (opcode == 0) {
      // String definition: ids are assigned sequentially at first use.
      const std::uint64_t id = read_varint();
      if (id != strings_.size()) fail("out-of-order string definition");
      const std::uint64_t len = read_varint();
      if (len > (1u << 20)) fail("unreasonable string length");
      std::string s(static_cast<std::size_t>(len), '\0');
      in_->read(s.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::uint64_t>(in_->gcount()) != len)
        fail("truncated string definition");
      strings_.push_back(std::move(s));
      continue;
    }
    if (opcode < static_cast<std::uint8_t>(TraceEv::kRunBegin) ||
        opcode > static_cast<std::uint8_t>(TraceEv::kRunEnd))
      fail("unknown opcode " + std::to_string(opcode));
    rec.ev = static_cast<TraceEv>(opcode);
    break;
  }

  const auto string_ref = [&]() -> const std::string& {
    const std::uint64_t id = read_varint();
    if (id >= strings_.size()) fail("dangling string reference");
    return strings_[static_cast<std::size_t>(id)];
  };
  const auto read_int = [&] {
    const std::uint64_t v = read_varint();
    if (v > static_cast<std::uint64_t>(INT_MAX)) fail("int field above INT_MAX");
    return static_cast<int>(v);
  };
  const auto read_signed_int = [&] {
    const std::int64_t v = read_svarint();
    if (v < INT_MIN || v > INT_MAX) fail("int field outside the int range");
    return static_cast<int>(v);
  };
  // A processor count is bounded by the machine cap, which also bounds
  // what analyze_trace allocates per run (two P x P steal matrices).
  const auto read_procs = [&] {
    const int p = read_int();
    if (p < 1 || p > kMaxProcessors)
      fail("processor count " + std::to_string(p) + " outside 1.." +
           std::to_string(kMaxProcessors));
    return p;
  };

  switch (rec.ev) {
    case TraceEv::kRunBegin:
      rec.machine = string_ref();
      rec.program = string_ref();
      rec.scheduler = string_ref();
      rec.p = read_procs();
      break;
    case TraceEv::kLoopBegin:
      rec.epoch = read_int();
      rec.n = static_cast<std::int64_t>(read_varint());
      rec.p = read_procs();
      break;
    case TraceEv::kGrab: {
      rec.proc = read_int();
      const std::uint8_t kind = read_u8();
      if (kind > static_cast<std::uint8_t>(GrabKind::kStatic))
        fail("unknown grab kind");
      rec.kind = static_cast<GrabKind>(kind);
      rec.queue = read_signed_int();
      rec.begin = read_svarint();
      rec.end = read_svarint();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    }
    case TraceEv::kChunk:
      rec.proc = read_int();
      rec.begin = read_svarint();
      rec.end = read_svarint();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kMiss:
      rec.proc = read_int();
      rec.block = read_svarint();
      rec.size = read_value();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kInval:
      rec.proc = read_int();
      rec.block = read_svarint();
      rec.copies = read_int();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      rec.proc = read_int();
      rec.t0 = read_time();
      break;
    case TraceEv::kStall:
      rec.proc = read_int();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kFaultSteal:
      rec.proc = read_int();
      rec.queue = read_signed_int();
      rec.n = static_cast<std::int64_t>(read_varint());
      break;
    case TraceEv::kAbandoned:
      rec.n = static_cast<std::int64_t>(read_varint());
      break;
    case TraceEv::kLoopEnd:
      rec.epoch = read_int();
      rec.t0 = read_time();
      break;
    case TraceEv::kBarrier:
      rec.epoch = read_int();
      rec.size = read_value();
      rec.t0 = read_time();
      break;
    case TraceEv::kRunEnd:
      rec.t0 = read_time();
      break;
  }
  ++records_;
  return true;
}

std::vector<TraceRecord> read_trace(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

std::string trace_json(const TraceRecord& r) {
  JsonLine j(r.ev);
  switch (r.ev) {
    case TraceEv::kRunBegin:
      j.str("machine", r.machine)
          .str("program", r.program)
          .str("scheduler", r.scheduler)
          .num("p", r.p);
      break;
    case TraceEv::kLoopBegin:
      j.num("epoch", r.epoch).num("n", r.n).num("p", r.p);
      break;
    case TraceEv::kGrab:
      j.num("proc", r.proc)
          .str("kind", to_string(r.kind))
          .num("queue", r.queue)
          .num("begin", r.begin)
          .num("end", r.end)
          .real("t0", r.t0)
          .real("t1", r.t1);
      break;
    case TraceEv::kChunk:
      j.num("proc", r.proc)
          .num("begin", r.begin)
          .num("end", r.end)
          .real("t0", r.t0)
          .real("t1", r.t1);
      break;
    case TraceEv::kMiss:
      j.num("proc", r.proc)
          .num("block", r.block)
          .real("size", r.size)
          .real("t0", r.t0)
          .real("t1", r.t1);
      break;
    case TraceEv::kInval:
      j.num("proc", r.proc)
          .num("block", r.block)
          .num("copies", r.copies)
          .real("t0", r.t0)
          .real("t1", r.t1);
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      j.num("proc", r.proc).real("t", r.t0);
      break;
    case TraceEv::kStall:
      j.num("proc", r.proc).real("t0", r.t0).real("t1", r.t1);
      break;
    case TraceEv::kFaultSteal:
      j.num("proc", r.proc).num("queue", r.queue).num("iters", r.n);
      break;
    case TraceEv::kAbandoned:
      j.num("iters", r.n);
      break;
    case TraceEv::kLoopEnd:
      j.num("epoch", r.epoch).real("end", r.t0);
      break;
    case TraceEv::kBarrier:
      j.num("epoch", r.epoch).real("cost", r.size).real("total", r.t0);
      break;
    case TraceEv::kRunEnd:
      j.real("makespan", r.t0);
      break;
  }
  return j.finish();
}

}  // namespace afs
