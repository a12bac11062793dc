#include "trace/binary_sink.hpp"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/atomic_file.hpp"

namespace afs {
namespace {

constexpr std::size_t kFlushThreshold = 1 << 16;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

BinaryTraceSink::BinaryTraceSink(std::ostream& out) : out_(&out) {
  buf_.append(reinterpret_cast<const char*>(kMagic), sizeof kMagic);
  bytes_ += static_cast<std::int64_t>(sizeof kMagic);
}

BinaryTraceSink::BinaryTraceSink(const std::string& path)
    : out_(&file_), final_path_(path), tmp_path_(unique_tmp_path(path)) {
  file_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!file_) throw std::runtime_error("cannot open trace file: " + path);
  buf_.append(reinterpret_cast<const char*>(kMagic), sizeof kMagic);
  bytes_ += static_cast<std::int64_t>(sizeof kMagic);
}

void BinaryTraceSink::finalize() {
  flush_buffer();
  if (final_path_.empty()) return;
  const std::string path = std::exchange(final_path_, std::string());
  file_.flush();
  if (!file_) throw std::runtime_error("trace write failed: " + path);
  file_.close();
  commit_file_atomic(tmp_path_, path);
}

void BinaryTraceSink::abandon() {
  if (final_path_.empty()) return;
  const std::string path = std::exchange(final_path_, std::string());
  file_.close();
  std::remove(tmp_path_.c_str());
}

BinaryTraceSink::~BinaryTraceSink() {
  try {
    finalize();
  } catch (const std::exception& e) {
    std::cerr << "trace finalize failed: " << e.what() << "\n";
  }
}

void BinaryTraceSink::flush_buffer() {
  if (buf_.empty()) return;
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void BinaryTraceSink::op(TraceEv ev) {
  put_u8(static_cast<std::uint8_t>(ev));
  ++records_;
  if (buf_.size() >= kFlushThreshold) flush_buffer();
}

void BinaryTraceSink::put_u8(std::uint8_t b) {
  buf_.push_back(static_cast<char>(b));
  ++bytes_;
}

void BinaryTraceSink::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void BinaryTraceSink::put_svarint(std::int64_t v) {
  // Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
  put_varint((static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63));
}

void BinaryTraceSink::put_time(double t) {
  const std::uint64_t b = bits_of(t);
  put_varint(b ^ prev_time_bits_);
  prev_time_bits_ = b;
}

void BinaryTraceSink::put_value(double v) {
  const std::uint64_t b = bits_of(v);
  put_varint(b ^ prev_value_bits_);
  prev_value_bits_ = b;
}

std::uint64_t BinaryTraceSink::intern(const std::string& s) {
  const auto it = interned_.find(s);
  if (it != interned_.end()) return it->second;
  const std::uint64_t id = interned_.size();
  interned_.emplace(s, id);
  put_u8(0);  // string-definition opcode (not counted as a record)
  put_varint(id);
  put_varint(s.size());
  buf_.append(s);
  bytes_ += static_cast<std::int64_t>(s.size());
  return id;
}

void BinaryTraceSink::record(const TraceRecord& r) {
  switch (r.ev) {
    case TraceEv::kRunBegin: {
      // Definitions for any new strings go out before the record's
      // opcode, so the reader has resolved every id by the time it
      // decodes the body.
      const std::uint64_t machine_id = intern(r.machine);
      const std::uint64_t program_id = intern(r.program);
      const std::uint64_t scheduler_id = intern(r.scheduler);
      op(r.ev);
      put_varint(machine_id);
      put_varint(program_id);
      put_varint(scheduler_id);
      put_varint(static_cast<std::uint64_t>(r.p));
      break;
    }
    case TraceEv::kLoopBegin:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.epoch));
      put_varint(static_cast<std::uint64_t>(r.n));
      put_varint(static_cast<std::uint64_t>(r.p));
      break;
    case TraceEv::kGrab:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_u8(static_cast<std::uint8_t>(r.kind));
      put_svarint(r.queue);
      put_svarint(r.begin);
      put_svarint(r.end);
      put_time(r.t0);
      put_time(r.t1);
      break;
    case TraceEv::kChunk:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_svarint(r.begin);
      put_svarint(r.end);
      put_time(r.t0);
      put_time(r.t1);
      break;
    case TraceEv::kMiss:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_svarint(r.block);
      put_value(r.size);
      put_time(r.t0);
      put_time(r.t1);
      break;
    case TraceEv::kInval:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_svarint(r.block);
      put_varint(static_cast<std::uint64_t>(r.copies));
      put_time(r.t0);
      put_time(r.t1);
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_time(r.t0);
      break;
    case TraceEv::kStall:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_time(r.t0);
      put_time(r.t1);
      break;
    case TraceEv::kFaultSteal:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.proc));
      put_svarint(r.queue);
      put_varint(static_cast<std::uint64_t>(r.n));
      break;
    case TraceEv::kAbandoned:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.n));
      break;
    case TraceEv::kLoopEnd:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.epoch));
      put_time(r.t0);
      break;
    case TraceEv::kBarrier:
      op(r.ev);
      put_varint(static_cast<std::uint64_t>(r.epoch));
      put_value(r.size);
      put_time(r.t0);
      break;
    case TraceEv::kRunEnd:
      op(r.ev);
      put_time(r.t0);
      flush_buffer();
      out_->flush();
      break;
  }
}

}  // namespace afs
