#include "serve/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <cstdio>
#include <vector>

#include "serve/fault_injector.h"
#include "serve/wire.h"
#include "util/crc32.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

/// Per-record cap: a train message is bounded by the protocol's frame
/// limit, so anything bigger in the log is corruption, not data.
constexpr std::uint32_t kMaxWalBodyBytes = 80u << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

void write_file_all(int fd, const std::uint8_t* data, std::size_t len,
                    const std::string& path) {
  std::size_t sent = 0;
  while (sent < len) {
    const std::size_t chunk =
        FaultInjector::instance().clamp_write_len(len - sent);
    const ssize_t n = ::write(fd, data + sent, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("wal: write " + path);
    }
    sent += static_cast<std::size_t>(n);
  }
}

// fdatasync, not fsync: an append-only log needs the data and the size
// extension required to retrieve it (POSIX guarantees fdatasync covers
// both); flushing the rest of the inode metadata would only stretch the
// group-commit window for nothing recovery reads.
void fsync_or_throw(int fd, const std::string& path) {
  if (::fdatasync(fd) < 0) throw_errno("wal: fdatasync " + path);
}

std::uint32_t le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

FsyncMode fsync_mode_from_string(const std::string& s) {
  if (s == "none") return FsyncMode::kNone;
  if (s == "batch") return FsyncMode::kBatch;
  if (s == "always") return FsyncMode::kAlways;
  throw ParseError("wal: unknown fsync mode '" + s +
                   "' (expected none|batch|always)");
}

std::string to_string(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kNone:
      return "none";
    case FsyncMode::kBatch:
      return "batch";
    case FsyncMode::kAlways:
      return "always";
  }
  return "batch";
}

std::vector<std::uint8_t> encode_wal_body(const WalRecord& record) {
  wire::Writer w(kMaxWalBodyBytes);
  w.u8(kWalFormatVersion);
  w.u8(record.op);
  w.u64(record.seqno);
  w.u64(record.user_id);
  w.u64(record.request_id);
  w.u8(record.as_spam ? 1 : 0);
  w.u32(record.copies);
  w.str(record.message);
  return std::move(w).take();
}

WalRecord decode_wal_body(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  const std::uint8_t version = r.u8();
  if (version != kWalFormatVersion) {
    throw ParseError("wal: unknown format version " + std::to_string(version));
  }
  WalRecord record;
  record.op = r.u8();
  if (record.op != kWalOpTrain && record.op != kWalOpUntrain) {
    throw ParseError("wal: unknown op " + std::to_string(record.op));
  }
  record.seqno = r.u64();
  record.user_id = r.u64();
  record.request_id = r.u64();
  record.as_spam = r.u8() != 0;
  record.copies = r.u32();
  record.message = r.str();
  r.expect_done();
  return record;
}

WalWriter::WalWriter(std::string path, FsyncMode mode)
    : path_(std::move(path)), mode_(mode) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_APPEND | O_WRONLY | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("wal: open " + path_);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void WalWriter::append(const WalRecord& record) {
  const std::vector<std::uint8_t> body = encode_wal_body(record);
  wire::Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(util::crc32(body.data(), body.size()));
  std::vector<std::uint8_t> out = std::move(frame).take();
  out.insert(out.end(), body.begin(), body.end());

  const util::MutexLock lock(io_mutex_);
  write_file_all(fd_, out.data(), out.size(), path_);
  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(out.size(), std::memory_order_relaxed);
  since_truncate_.fetch_add(1, std::memory_order_relaxed);
  FaultInjector::instance().after_wal_record();

  switch (mode_) {
    case FsyncMode::kNone:
      break;
    case FsyncMode::kAlways:
      fsync_or_throw(fd_, path_);
      break;
    case FsyncMode::kBatch:
      // Group commit: the covering fsync comes from the next sync() call
      // (the commit-window leader in Durability::await_durable, or the
      // drain flush). Appends only mark the log dirty.
      ++unsynced_;
      break;
  }
}

void WalWriter::sync() {
  if (mode_ == FsyncMode::kNone) return;
  const util::MutexLock lock(io_mutex_);
  if (unsynced_ == 0 && mode_ == FsyncMode::kBatch) return;
  fsync_or_throw(fd_, path_);
  unsynced_ = 0;
}

void WalWriter::truncate(std::uint64_t valid_bytes) {
  const util::MutexLock lock(io_mutex_);
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) < 0) {
    throw_errno("wal: truncate " + path_);
  }
  fsync_or_throw(fd_, path_);
  unsynced_ = 0;
  since_truncate_.store(0, std::memory_order_relaxed);
}

WalReadStats read_wal(const std::string& path,
                      const std::function<void(const WalRecord&)>& sink) {
  WalReadStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // no log yet = empty log
    throw_errno("wal: open " + path);
  }

  std::vector<std::uint8_t> data;
  {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("wal: read " + path);
      }
      if (n == 0) break;
      data.insert(data.end(), buf, buf + n);
    }
  }
  ::close(fd);
  stats.bytes_total = data.size();

  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      stats.dropped_torn = 1;
      break;
    }
    const std::uint32_t body_len = le32(data.data() + pos);
    const std::uint32_t stored_crc = le32(data.data() + pos + 4);
    if (body_len == 0 || body_len > kMaxWalBodyBytes) {
      stats.dropped_corrupt = 1;
      break;
    }
    if (data.size() - pos - 8 < body_len) {
      stats.dropped_torn = 1;
      break;
    }
    const std::uint8_t* body = data.data() + pos + 8;
    if (util::crc32(body, body_len) != stored_crc) {
      stats.dropped_corrupt = 1;
      break;
    }
    WalRecord record;
    try {
      record = decode_wal_body(std::span<const std::uint8_t>(body, body_len));
    } catch (const ParseError&) {
      // CRC matched but the body doesn't decode — treat as corruption, not
      // a crash (a bad record poisons everything after it).
      stats.dropped_corrupt = 1;
      break;
    }
    sink(record);
    ++stats.records;
    pos += 8 + body_len;
    stats.bytes_used = pos;
  }
  return stats;
}

}  // namespace sbx::serve
