#include "serve/recovery.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "serve/frontend.h"
#include "spambayes/token_db.h"
#include "util/crc32.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Writes `content` to `path` atomically and durably: tmp file + fsync +
/// rename + parent-directory fsync. The rename is the commit point.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("recovery: open " + tmp);
  std::size_t sent = 0;
  while (sent < content.size()) {
    const ssize_t n = ::write(fd, content.data() + sent, content.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("recovery: write " + tmp);
    }
    sent += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("recovery: fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) < 0) {
    throw_errno("recovery: rename " + tmp + " -> " + path);
  }
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dirfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);  // best effort: makes the rename itself durable
    ::close(dirfd);
  }
}

/// nullopt when the file does not exist; throws IoError on read failures.
std::optional<std::string> read_file_to_string(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) throw IoError("recovery: read " + path);
  return std::move(out).str();
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Strict "key value..." line splitter for the text headers.
std::istringstream line_fields(std::istream& in, const std::string& expect_key,
                               const std::string& what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw ParseError(what + ": truncated (expected '" + expect_key + "' line)");
  }
  std::istringstream fields(line);
  std::string key;
  fields >> key;
  if (key != expect_key) {
    throw ParseError(what + ": expected '" + expect_key + "', got '" + line +
                     "'");
  }
  return fields;
}

std::uint64_t read_u64_field(std::istringstream& fields,
                             const std::string& what) {
  std::uint64_t v = 0;
  if (!(fields >> v)) throw ParseError(what + ": malformed numeric field");
  return v;
}

constexpr char kCheckpointMagic[] = "SBXCKPT 1";

/// Serializes user states in the line format of a checkpoint's body.
void append_user_states(std::ostream& out,
                        const std::vector<UserSnapshotState>& users) {
  for (const UserSnapshotState& u : users) {
    out << "user " << u.uid << " " << u.dedup.size() << " "
        << (u.overlay != nullptr ? 1 : 0) << "\n";
    for (const DedupEntry& d : u.dedup) {
      out << "dedup " << d.request_id << " "
          << static_cast<unsigned>(d.op) << " " << d.spam << " " << d.ham
          << "\n";
    }
    if (u.overlay != nullptr) {
      // TokenDatabase::load reads to end-of-stream, so the embedded block
      // needs an explicit byte count to know where this user's database
      // ends and the next header line begins.
      std::ostringstream db;
      u.overlay->save(db);
      const std::string bytes = db.str();
      out << "dbbytes " << bytes.size() << "\n" << bytes << "\n";
    }
  }
}

/// Refuses a count that cannot fit in the content left before `end`:
/// every entry takes at least one byte, so nothing is ever sized by a
/// count larger than the file.
void check_count(std::istream& in, std::size_t end, std::uint64_t count,
                 const std::string& field, const std::string& what) {
  const std::streamoff pos = in.tellg();
  const std::uint64_t left =
      pos < 0 || static_cast<std::uint64_t>(pos) > end
          ? 0
          : end - static_cast<std::uint64_t>(pos);
  if (count > left) {
    throw ParseError(what + ": " + field + " count " + std::to_string(count) +
                     " exceeds the " + std::to_string(left) +
                     " bytes left in the file");
  }
}

std::vector<UserSnapshotState> parse_user_states(std::istream& in,
                                                 std::size_t end,
                                                 std::uint64_t user_count,
                                                 const std::string& what) {
  check_count(in, end, user_count, "users", what);
  std::vector<UserSnapshotState> users;
  for (std::uint64_t i = 0; i < user_count; ++i) {
    UserSnapshotState u;
    std::uint64_t dedup_count = 0;
    std::uint64_t db_present = 0;
    {
      auto f = line_fields(in, "user", what);
      u.uid = read_u64_field(f, what);
      dedup_count = read_u64_field(f, what);
      db_present = read_u64_field(f, what);
    }
    check_count(in, end, dedup_count, "dedup", what);
    for (std::uint64_t d = 0; d < dedup_count; ++d) {
      auto f = line_fields(in, "dedup", what);
      DedupEntry e;
      e.request_id = read_u64_field(f, what);
      e.op = static_cast<std::uint8_t>(read_u64_field(f, what));
      e.spam = static_cast<std::uint32_t>(read_u64_field(f, what));
      e.ham = static_cast<std::uint32_t>(read_u64_field(f, what));
      u.dedup.push_back(e);
    }
    if (db_present != 0) {
      std::uint64_t nbytes = 0;
      {
        auto f = line_fields(in, "dbbytes", what);
        nbytes = read_u64_field(f, what);
      }
      check_count(in, end, nbytes, "dbbytes", what);
      std::string bytes(nbytes, '\0');
      if (!in.read(bytes.data(), static_cast<std::streamsize>(nbytes))) {
        throw ParseError(what + ": truncated database block");
      }
      if (in.get() != '\n') {
        throw ParseError(what + ": database block not newline-terminated");
      }
      std::istringstream db(bytes);
      try {
        u.overlay = std::make_shared<spambayes::TokenDatabase>(
            spambayes::TokenDatabase::load(db));
      } catch (const ParseError& e) {
        throw ParseError(what + ": user " + std::to_string(u.uid) + ": " +
                         e.what());
      }
    }
    users.push_back(std::move(u));
  }
  return users;
}

/// A checkpoint file's content: everything before its trailing `crc`
/// line, which signs it.
struct SignedContent {
  std::size_t size = 0;
  std::uint32_t crc = 0;
};

SignedContent checked_content(const std::string& file,
                              const std::string& what) {
  if (file.size() < 2 || file.back() != '\n') {
    throw ParseError(what + ": truncated (no trailing crc line)");
  }
  const std::size_t last_newline = file.rfind('\n', file.size() - 2);
  SignedContent content;
  content.size = last_newline == std::string::npos ? 0 : last_newline + 1;
  content.crc = util::crc32(file.data(), content.size);
  std::istringstream last(file.substr(content.size));
  auto f = line_fields(last, "crc", what);
  const std::uint64_t stored = read_u64_field(f, what);
  if (stored != content.crc) {
    throw ParseError(what + ": content crc mismatch (stored " +
                     std::to_string(stored) + ", computed " +
                     std::to_string(content.crc) + ")");
  }
  return content;
}

}  // namespace

// --- Paths -----------------------------------------------------------------

std::string shard_dir(const std::string& data_dir, std::size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", shard);
  return data_dir + "/" + buf;
}

std::string wal_path_in(const std::string& data_dir, std::size_t shard) {
  return shard_dir(data_dir, shard) + "/wal.log";
}

std::string checkpoint_path_in(const std::string& data_dir, std::size_t shard,
                               std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%06llu.inc",
                static_cast<unsigned long long>(index));
  return shard_dir(data_dir, shard) + "/" + buf;
}

// --- Manifest --------------------------------------------------------------

void write_manifest(const std::string& data_dir, const Manifest& manifest) {
  std::ostringstream out;
  out << "SBXMANIFEST 1\n";
  out << "users " << manifest.users << "\n";
  out << "shards " << manifest.shards << "\n";
  out << "base_size " << manifest.base_size << "\n";
  out << "spam_fraction " << format_double(manifest.spam_fraction) << "\n";
  out << "base_seed " << manifest.base_seed << "\n";
  write_file_atomic(data_dir + "/MANIFEST", out.str());
}

std::optional<Manifest> read_manifest(const std::string& data_dir) {
  const std::string path = data_dir + "/MANIFEST";
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  const std::string what = "manifest " + path;
  std::string magic;
  if (!std::getline(in, magic) || magic != "SBXMANIFEST 1") {
    throw ParseError(what + ": bad magic");
  }
  Manifest m;
  {
    auto f = line_fields(in, "users", what);
    m.users = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "shards", what);
    m.shards = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "base_size", what);
    m.base_size = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "spam_fraction", what);
    if (!(f >> m.spam_fraction)) {
      throw ParseError(what + ": malformed spam_fraction");
    }
  }
  {
    auto f = line_fields(in, "base_seed", what);
    m.base_seed = read_u64_field(f, what);
  }
  return m;
}

// --- Checkpoints -----------------------------------------------------------

CheckpointWriteResult write_checkpoint_file(const std::string& path,
                                            const Checkpoint& checkpoint) {
  std::ostringstream out;
  out << kCheckpointMagic << "\n";
  out << "index " << checkpoint.index << "\n";
  out << "parent "
      << (checkpoint.root() ? std::string("root")
                            : std::to_string(*checkpoint.parent_crc))
      << "\n";
  out << "seqno " << checkpoint.seqno << "\n";
  out << "users " << checkpoint.users.size() << "\n";
  append_user_states(out, checkpoint.users);
  std::string content = std::move(out).str();
  CheckpointWriteResult result;
  result.crc = util::crc32(content.data(), content.size());
  content += "crc " + std::to_string(result.crc) + "\n";
  write_file_atomic(path, content);
  result.bytes = content.size();
  return result;
}

std::optional<Checkpoint> read_checkpoint_file(const std::string& path,
                                               std::uint32_t* out_crc) {
  const std::optional<std::string> file = read_file_to_string(path);
  if (!file.has_value()) return std::nullopt;
  const std::string what = "checkpoint " + path;
  std::istringstream in(*file);
  std::string magic;
  std::getline(in, magic);
  if (magic == "SBXSNAPINC 1") {
    throw ParseError(what + ": legacy SBXSNAPINC 1 segment; this build "
                     "only reads " + kCheckpointMagic + " chains");
  }
  if (magic != kCheckpointMagic) throw ParseError(what + ": bad magic");
  const SignedContent content = checked_content(*file, what);
  Checkpoint checkpoint;
  {
    auto f = line_fields(in, "index", what);
    checkpoint.index = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "parent", what);
    std::string parent;
    f >> parent;
    if (parent != "root") {
      std::istringstream crc(parent);
      const std::uint64_t value = read_u64_field(crc, what);
      if (value > UINT32_MAX) throw ParseError(what + ": parent crc overflow");
      checkpoint.parent_crc = static_cast<std::uint32_t>(value);
    }
  }
  {
    auto f = line_fields(in, "seqno", what);
    checkpoint.seqno = read_u64_field(f, what);
  }
  std::uint64_t user_count = 0;
  {
    auto f = line_fields(in, "users", what);
    user_count = read_u64_field(f, what);
  }
  checkpoint.users = parse_user_states(in, content.size, user_count, what);
  if (in.tellg() != static_cast<std::streamoff>(content.size)) {
    throw ParseError(what + ": user states do not end at the crc line");
  }
  if (out_crc != nullptr) *out_crc = content.crc;
  return checkpoint;
}

SnapshotChainScan scan_snapshot_chain(const std::string& data_dir,
                                      std::size_t shard) {
  const std::string dir = shard_dir(data_dir, shard);
  const std::string legacy = dir + "/snapshot.db";
  if (std::filesystem::exists(legacy)) {
    throw ParseError("checkpoint " + legacy +
                     ": legacy full snapshot; this build only reads "
                     "CRC-chained snap-NNNNNN.inc segments");
  }

  // Enumerate snap-NNNNNN.inc segments (a missing shard dir = no chain).
  struct Loaded {
    Checkpoint segment;
    std::uint32_t crc = 0;
    std::string path;
  };
  std::map<std::uint64_t, Loaded> by_index;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.rfind("snap-", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".inc") != 0) {
      continue;
    }
    Loaded loaded;
    loaded.path = entry.path().string();
    std::optional<Checkpoint> segment =
        read_checkpoint_file(loaded.path, &loaded.crc);
    if (!segment.has_value()) continue;  // raced away; treat as absent
    loaded.segment = std::move(*segment);
    const std::uint64_t index = loaded.segment.index;
    if (by_index.count(index) != 0) {
      throw ParseError("checkpoint " + loaded.path +
                       ": duplicate chain index " + std::to_string(index));
    }
    by_index.emplace(index, std::move(loaded));
  }
  SnapshotChainScan scan;
  if (by_index.empty()) return scan;

  // Walk back from the newest segment: consecutive indices whose parent
  // crc names the predecessor's content crc, down to a root.
  auto root = std::prev(by_index.end());
  while (!root->second.segment.root()) {
    const auto parent = by_index.find(root->first - 1);
    if (parent == by_index.end() ||
        parent->second.crc != *root->second.segment.parent_crc) {
      throw ParseError("checkpoint " + root->second.path +
                       ": chain broken (no segment " +
                       std::to_string(root->first - 1) +
                       " with the parent crc it names)");
    }
    root = parent;
  }
  const std::uint64_t root_index = root->first;
  const std::uint64_t root_seqno = root->second.segment.seqno;
  for (auto& [index, loaded] : by_index) {
    if (index < root_index) {
      // Only segments the root already covers may sit below it — those
      // are leftovers of a compaction interrupted between the root's
      // rename and the unlinks. Anything newer is lost state.
      if (loaded.segment.seqno > root_seqno) {
        throw ParseError("checkpoint " + loaded.path + ": seqno " +
                         std::to_string(loaded.segment.seqno) +
                         " beyond the seqno " + std::to_string(root_seqno) +
                         " of the root at index " +
                         std::to_string(root_index) + " above it");
      }
      scan.stale_paths.push_back(loaded.path);
      continue;
    }
    if (loaded.segment.seqno < scan.snapshot_seqno) {
      throw ParseError("checkpoint " + loaded.path +
                       ": seqno regressed along the chain");
    }
    scan.snapshot_seqno = loaded.segment.seqno;
    scan.tail_crc = loaded.crc;
    scan.segments.push_back(std::move(loaded.segment));
  }
  return scan;
}

// --- Durability ------------------------------------------------------------

Durability::Durability(DurabilityConfig config, std::size_t shard_count)
    : config_(std::move(config)) {
  if (config_.data_dir.empty()) {
    throw InvalidArgument("durability: data_dir must not be empty");
  }
  if (shard_count == 0) {
    throw InvalidArgument("durability: shard_count must be greater than 0");
  }
  std::error_code ec;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::string dir = shard_dir(config_.data_dir, s);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw IoError("durability: mkdir " + dir + ": " + ec.message());
    }
  }
  wals_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    wals_.push_back(std::make_unique<WalWriter>(
        wal_path_in(config_.data_dir, s), config_.fsync));
  }
  const util::MutexLock lock(chain_mutex_);
  chains_.resize(shard_count);
}

void Durability::adopt_chain(std::size_t shard,
                             const SnapshotChainScan& scan) {
  const util::MutexLock lock(chain_mutex_);
  ChainState& chain = chains_.at(shard);
  chain.next_index = scan.segments.empty() ? 1 : scan.segments.back().index + 1;
  chain.last_crc = scan.tail_crc;
  chain.segments = scan.segments.size();
}

void Durability::note_recovered_seqno(std::uint64_t max_seen) {
  std::uint64_t current = next_seqno_.load(std::memory_order_relaxed);
  while (current <= max_seen &&
         !next_seqno_.compare_exchange_weak(current, max_seen + 1,
                                            std::memory_order_relaxed)) {
  }
}

void Durability::await_durable(std::uint64_t ticket) {
  if (config_.fsync != FsyncMode::kBatch || ticket == 0) return;
  const util::MutexLock lock(commit_mutex_);
  while (committed_ < ticket) {
    // This thread leads the open commit window: one pass over the logs
    // (WalWriter::sync skips the clean ones) covers every ticket drawn
    // before the loads below. Waiters blocked on commit_mutex_ meanwhile
    // pile into the window and find committed_ past their ticket.
    const std::uint64_t target = appended_.load(std::memory_order_acquire);
    for (const auto& wal : wals_) wal->sync();
    committed_ = target;
    windows_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Durability::checkpoint_wants_root(std::size_t shard) {
  const util::MutexLock lock(chain_mutex_);
  return chains_.at(shard).wants_root();
}

void Durability::checkpoint(std::size_t shard, std::uint64_t seqno,
                            std::vector<UserSnapshotState> users) {
  {
    const util::MutexLock lock(chain_mutex_);
    ChainState& chain = chains_.at(shard);
    const bool root = chain.wants_root();
    Checkpoint segment;
    segment.index = chain.next_index;
    if (!root) segment.parent_crc = chain.last_crc;
    segment.seqno = seqno;
    segment.users = std::move(users);
    const CheckpointWriteResult wrote = write_checkpoint_file(
        checkpoint_path_in(config_.data_dir, shard, segment.index), segment);
    if (root) {
      // The durable root covers every segment below it; unlink them. A
      // crash mid-loop leaves leftovers that recovery recognizes (seqno at
      // or below the root's) and skips.
      for (std::uint64_t i = segment.index - chain.segments; i < segment.index;
           ++i) {
        ::unlink(checkpoint_path_in(config_.data_dir, shard, i).c_str());
      }
      chain.segments = 1;
    } else {
      ++chain.segments;
      inc_bytes_.fetch_add(wrote.bytes, std::memory_order_relaxed);
    }
    chain.next_index = segment.index + 1;
    chain.last_crc = wrote.crc;
  }
  // Outside chain_mutex_: a WAL's io mutex is never taken under it.
  wals_.at(shard)->truncate();
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void Durability::sync_all() {
  for (const auto& wal : wals_) wal->sync();
}

std::uint64_t Durability::total_records() const {
  std::uint64_t total = 0;
  for (const auto& wal : wals_) total += wal->records();
  return total;
}

std::uint64_t Durability::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& wal : wals_) total += wal->bytes();
  return total;
}

// --- Recovery --------------------------------------------------------------

RecoveryStats recover(ServeFrontend& frontend, const std::string& data_dir) {
  if (frontend.durability() != nullptr) {
    throw InvalidArgument(
        "recover: a durable frontend recovers its own data dir when it is "
        "constructed; recover() only fills a read-only mirror");
  }
  return frontend.recover_from(data_dir);
}

}  // namespace sbx::serve
