#include "analysis/spill_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "analysis/chunk_codec.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::analysis {
namespace {

// Chunk file: 8-byte magic, u64 version, u64 rows, u64 flags (bit0 = aux
// columns present), then the columns in declaration order, each stored as
// [u8 encoding tag][u64 payload bytes][payload] (see chunk_codec.hpp).
constexpr char kChunkMagic[8] = {'W', 'S', 'P', 'C', 'H', 'K', '0', '2'};
constexpr std::uint64_t kChunkVersion = 2;
constexpr std::uint64_t kFlagAux = 1;
constexpr std::size_t kColHeaderBytes = 1 + sizeof(std::uint64_t);

constexpr const char* kColNames[] = {
    "app",   "rank",  "node",   "iface",    "op",        "fs",  "file",
    "offset", "size", "count",  "tstart",   "tend",      "path_idx",
    "file_size",
};

// One store per subdirectory: a process-wide sequence number plus the pid
// keeps two stores sharing one --spill-dir (even across processes) from
// ever colliding on chunk file names.
std::atomic<std::uint64_t> g_store_seq{0};

std::string errno_suffix(int err) {
  return err != 0 ? std::string(" (") + std::strerror(err) + ")"
                  : std::string();
}

/// Grow `buf` by n bytes and return where they start.
std::uint8_t* extend(std::vector<std::uint8_t>& buf, std::size_t n) {
  const std::size_t at = buf.size();
  buf.resize(at + n);
  return buf.data() + at;
}

void put_bytes(std::vector<std::uint8_t>& buf, const void* src,
               std::size_t n) {
  if (n != 0) std::memcpy(extend(buf, n), src, n);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  put_bytes(buf, &v, sizeof(v));
}

/// Remove a partially-written chunk so a disk-full flush never leaves a
/// truncated file that a later load would diagnose as corruption. Guarded:
/// only regular files and symlinks are unlinked (tests symlink chunk paths
/// at /dev/full; a device node must never be removed).
void remove_partial_chunk(const std::string& path) {
  std::error_code ec;
  const auto st = std::filesystem::symlink_status(path, ec);
  if (!ec && (std::filesystem::is_regular_file(st) ||
              std::filesystem::is_symlink(st))) {
    std::filesystem::remove(path, ec);
  }
}

/// Write a whole chunk file. On a real disk error (ENOSPC, EIO, quota) the
/// partial chunk is deleted, so the store directory never holds a truncated
/// file, and one diagnosed error is thrown instead of a corrupt-chunk
/// failure at read time.
void write_chunk_file(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  errno = 0;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw util::SimError("cannot open spill chunk for writing: " + path +
                         errno_suffix(errno));
  }
  std::size_t done = 0;
  int err = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      err = n < 0 ? errno : 0;
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0 && err == 0) err = errno;
  if (done < bytes.size() || err != 0) {
    remove_partial_chunk(path);
    throw util::SimError("short write to spill chunk: " + path +
                         ": expected " + std::to_string(bytes.size()) +
                         " bytes, wrote " + std::to_string(done) +
                         errno_suffix(err) + "; partial chunk removed");
  }
}

/// Read a whole chunk file into memory.
std::vector<std::uint8_t> read_chunk_file(const std::string& path) {
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw util::SimError("cannot open spill chunk: " + path +
                         errno_suffix(errno));
  }
  struct ::stat st {};
  std::vector<std::uint8_t> bytes;
  int err = 0;
  if (::fstat(fd, &st) != 0) {
    err = errno;
  } else {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        err = n < 0 ? errno : 0;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    bytes.resize(done);
  }
  ::close(fd);
  if (err != 0) {
    throw util::SimError("cannot read spill chunk: " + path +
                         errno_suffix(err));
  }
  return bytes;
}

/// Bounds-checked cursor over an in-memory chunk file.
struct ChunkReader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  const std::string& path;

  const std::uint8_t* take(std::uint64_t n) {
    WASP_CHECK_MSG(n <= static_cast<std::uint64_t>(end - p),
                   "truncated spill chunk: " + path);
    const std::uint8_t* at = p;
    p += n;
    return at;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
};

template <typename T>
void read_col_raw(ChunkReader& in, std::vector<T>& col, std::size_t rows) {
  col.resize(rows);
  const std::size_t bytes = rows * sizeof(T);
  if (bytes != 0) std::memcpy(col.data(), in.take(bytes), bytes);
}

/// Read one column: tag, payload length, payload; decode straight
/// into the typed column. Every length, the decoded row count and every
/// value's range are validated, so truncated or corrupt files throw instead
/// of mis-decoding.
template <typename T>
void read_col(ChunkReader& in, std::vector<T>& col, std::size_t rows) {
  const std::uint8_t tag = *in.take(1);
  const std::uint64_t len = in.u64();
  switch (static_cast<codec::Encoding>(tag)) {
    case codec::Encoding::kRaw:
      WASP_CHECK_MSG(len == rows * sizeof(T),
                     "raw column length mismatch in spill chunk: " + in.path);
      read_col_raw(in, col, rows);
      return;
    case codec::Encoding::kDelta:
    case codec::Encoding::kRle: {
      WASP_CHECK_MSG(len <= codec::max_encoded_bytes(rows),
                     "oversized encoded column in spill chunk: " + in.path);
      const std::uint8_t* payload = in.take(len);
      col.resize(rows);
      try {
        if (static_cast<codec::Encoding>(tag) == codec::Encoding::kDelta) {
          codec::decode_delta(payload, len, col.data(), rows);
        } else {
          codec::decode_rle(payload, len, col.data(), rows);
        }
      } catch (const util::SimError& e) {
        throw util::SimError(std::string(e.what()) +
                             " in spill chunk: " + in.path);
      }
      return;
    }
    default:
      WASP_CHECK_MSG(false,
                     "unknown column encoding in spill chunk: " + in.path);
  }
}

}  // namespace

template <typename Self, typename F>
void SpillColumnStore::Columns::for_each(Self& c, bool aux, F&& f) {
  f(c.app, kColApp);
  f(c.rank, kColRank);
  f(c.node, kColNode);
  f(c.iface, kColIface);
  f(c.op, kColOp);
  f(c.fs, kColFs);
  f(c.file, kColFile);
  f(c.offset, kColOffset);
  f(c.size, kColSize);
  f(c.count, kColCount);
  f(c.tstart, kColTstart);
  f(c.tend, kColTend);
  if (aux) {
    f(c.path_idx, kColPathIdx);
    f(c.file_size, kColFileSize);
  }
}

SpillColumnStore::ChunkData::~ChunkData() {
  if (residency) residency->resident.fetch_sub(1, std::memory_order_relaxed);
}

SpillColumnStore::SpillColumnStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.chunk_rows == 0) opts_.chunk_rows = 1;
  if (opts_.max_resident_chunks == 0) opts_.max_resident_chunks = 1;
  WASP_CHECK_MSG(!opts_.dir.empty(), "spill directory must be set");
  dir_ = opts_.dir + "/store_" + std::to_string(::getpid()) + "_" +
         std::to_string(g_store_seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  WASP_CHECK_MSG(!ec, "cannot create spill directory: " + dir_);
  residency_ = std::make_shared<Residency>();
}

SpillColumnStore::~SpillColumnStore() {
  stop_io_thread();
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    lru_.clear();
  }
  std::error_code ec;
  for (std::size_t c = 0; c < chunks_written_; ++c) {
    std::filesystem::remove(chunk_file_path(c), ec);
  }
  std::filesystem::remove(dir_, ec);
  // Only removed when empty — a shared spill dir with other stores'
  // subdirectories stays put.
  std::filesystem::remove(opts_.dir, ec);
}

std::string SpillColumnStore::chunk_file_path(std::size_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "chunk_%06zu.wspc", index);
  return dir_ + "/" + name;
}

void SpillColumnStore::append(std::span<const trace::Record> records) {
  decide_aux(false);
  append_rows(records, nullptr, nullptr);
}

void SpillColumnStore::append(std::span<const trace::Record> records,
                              std::span<const std::uint32_t> path_idx,
                              std::span<const std::uint64_t> file_sizes) {
  decide_aux(true);
  WASP_CHECK_MSG(
      records.size() == path_idx.size() && records.size() == file_sizes.size(),
      "aux columns must parallel the record span");
  append_rows(records, path_idx.data(), file_sizes.data());
}

void SpillColumnStore::decide_aux(bool aux) {
  WASP_CHECK_MSG(!finalized_, "append to finalized spill store");
  // Written once, by the first append: the background writer reads it.
  if (!aux_decided_) {
    aux_decided_ = true;
    has_aux_ = aux;
  }
  WASP_CHECK_MSG(has_aux_ == aux,
                 "mixing aux and non-aux appends on one spill store");
}

void SpillColumnStore::append_rows(std::span<const trace::Record> records,
                                   const std::uint32_t* path_idx,
                                   const std::uint64_t* file_sizes) {
  if (io_thread_.joinable()) {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (write_error_) std::rethrow_exception(write_error_);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::Record& r = records[i];
    open_.app.push_back(r.app);
    open_.rank.push_back(r.rank);
    open_.node.push_back(r.node);
    open_.iface.push_back(r.iface);
    open_.op.push_back(r.op);
    open_.fs.push_back(r.file.fs);
    open_.file.push_back(r.file.file);
    open_.offset.push_back(r.offset);
    open_.size.push_back(r.size);
    open_.count.push_back(r.count);
    open_.tstart.push_back(r.tstart);
    open_.tend.push_back(r.tend);
    if (path_idx != nullptr) {
      open_.path_idx.push_back(path_idx[i]);
      open_.file_size.push_back(file_sizes[i]);
    }
    max_fs_ = std::max(max_fs_, r.file.fs);
    if (open_.rows() >= opts_.chunk_rows) seal_open_chunk();
  }
  total_rows_ += records.size();
}

void SpillColumnStore::seal_open_chunk() {
  if (!io_thread_.joinable()) {
    io_thread_ = std::thread(&SpillColumnStore::io_loop, this);
  }
  {
    std::unique_lock<std::mutex> lock(io_mu_);
    io_cv_.wait(lock, [this] { return !sealed_pending_; });
    if (write_error_) std::rethrow_exception(write_error_);
    std::swap(open_, sealed_);
    sealed_index_ = chunks_written_++;
    sealed_pending_ = true;
  }
  io_cv_.notify_all();
  // The swapped-in buffers were written already: keep their capacity.
  Columns::for_each(open_, has_aux_, [this](auto& col, Col) {
    col.clear();
    col.reserve(opts_.chunk_rows);
  });
}

void SpillColumnStore::finalize() {
  WASP_CHECK_MSG(!finalized_, "finalize called twice");
  if (io_thread_.joinable()) {
    if (open_.rows() > 0) seal_open_chunk();
    std::unique_lock<std::mutex> lock(io_mu_);
    io_cv_.wait(lock, [this] { return !sealed_pending_; });
    if (write_error_) std::rethrow_exception(write_error_);
  } else if (open_.rows() > 0) {
    // Everything fit in one chunk: write it here, no thread needed.
    write_chunk(open_, chunks_written_);
    ++chunks_written_;
  }
  open_ = Columns{};
  sealed_ = Columns{};
  chunk_buf_ = {};
  finalized_ = true;
  if (opts_.prefetch && chunks_written_ > 1) {
    // More than one chunk means a chunk was sealed before this call, so
    // the background thread is running: turn it to read-ahead.
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      prefetching_ = true;
    }
    io_cv_.notify_all();
  } else {
    stop_io_thread();
  }
}

void SpillColumnStore::stop_io_thread() {
  if (!io_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    io_stop_ = true;
  }
  io_cv_.notify_all();
  io_thread_.join();
}

void SpillColumnStore::io_loop() {
  if (obs::SpanTracer::instance().enabled()) {
    obs::SpanTracer::instance().set_thread_name("spill-io");
  }
  std::unique_lock<std::mutex> lock(io_mu_);
  // Ingest: write each sealed chunk while the caller fills the next one.
  for (;;) {
    io_cv_.wait(lock, [this] {
      return io_stop_ || prefetching_ || sealed_pending_;
    });
    if (io_stop_) return;
    if (!sealed_pending_) break;  // finalize() drained the writer
    const std::size_t index = sealed_index_;
    lock.unlock();
    std::exception_ptr err;
    try {
      write_chunk(sealed_, index);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !write_error_) write_error_ = err;
    sealed_pending_ = false;
    io_cv_.notify_all();
  }
  // Sealed for reading: read ahead on sequential scans.
  for (;;) {
    io_cv_.wait(lock, [this] { return io_stop_ || pf_target_ != kNoChunk; });
    if (io_stop_) return;
    const std::size_t target = pf_target_;
    pf_target_ = kNoChunk;
    lock.unlock();
    try {
      (void)acquire_chunk(target, /*for_prefetch=*/true);
    } catch (const std::exception&) {
      // Corrupt/unreadable chunk: drop it here — the demand load will
      // surface the error on the caller's thread.
    }
    lock.lock();
  }
}

void SpillColumnStore::write_chunk(const Columns& cols, std::size_t index) {
  WASP_OBS_SPAN("spill.flush");
  const std::size_t rows = cols.rows();
  std::vector<std::uint8_t>& buf = chunk_buf_;
  buf.clear();
  put_bytes(buf, kChunkMagic, 8);
  put_u64(buf, kChunkVersion);
  put_u64(buf, rows);
  put_u64(buf, has_aux_ ? kFlagAux : 0);
  std::uint64_t raw[kNumCols] = {};
  std::uint64_t stored[kNumCols] = {};
  Columns::for_each(cols, has_aux_, [&](const auto& col, Col id) {
    using T = typename std::decay_t<decltype(col)>::value_type;
    raw[id] = rows * sizeof(T);
    const codec::Choice c = codec::choose_encoding(col.data(), rows);
    const auto tag = static_cast<std::uint8_t>(c.enc);
    put_bytes(buf, &tag, 1);
    put_u64(buf, c.bytes);
    switch (c.enc) {
      case codec::Encoding::kRaw:
        put_bytes(buf, col.data(), c.bytes);
        break;
      case codec::Encoding::kDelta:
        codec::encode_delta(col.data(), rows, extend(buf, c.bytes));
        break;
      case codec::Encoding::kRle:
        codec::encode_rle(col.data(), rows, extend(buf, c.bytes));
        break;
    }
    stored[id] = kColHeaderBytes + c.bytes;
  });
  write_chunk_file(chunk_file_path(index), buf);

  bytes_written_.add(buf.size());
  std::uint64_t raw_total = 0;
  for (std::size_t c = 0; c < kNumCols; ++c) {
    col_raw_[c] += raw[c];
    col_stored_[c] += stored[c];
    raw_total += raw[c];
  }
  raw_bytes_.add(raw_total);
}

std::shared_ptr<const SpillColumnStore::ChunkData> SpillColumnStore::load_chunk(
    std::size_t index) const {
  WASP_OBS_SPAN("spill.load");
  const std::string path = chunk_file_path(index);
  const std::vector<std::uint8_t> file = read_chunk_file(path);
  ChunkReader in{file.data(), file.data() + file.size(), path};
  WASP_CHECK_MSG(std::memcmp(in.take(8), kChunkMagic, 8) == 0,
                 "bad spill chunk magic: " + path);
  WASP_CHECK_MSG(in.u64() == kChunkVersion,
                 "unsupported spill chunk version: " + path);
  const std::uint64_t rows64 = in.u64();
  const std::uint64_t flags = in.u64();
  const auto rows = static_cast<std::size_t>(rows64);
  // Every chunk except the last must hold exactly chunk_rows rows —
  // view_of() computes each chunk's base as index * chunk_rows, so a short
  // non-final chunk (truncated rewrite, mixed-config directory) would
  // silently misalign every later row's global index.
  const std::size_t expected =
      index + 1 == chunks_written_
          ? total_rows_ - (chunks_written_ - 1) * opts_.chunk_rows
          : opts_.chunk_rows;
  WASP_CHECK_MSG(rows == expected, "spill chunk row count mismatch: " + path);
  const bool aux = (flags & kFlagAux) != 0;
  WASP_CHECK_MSG(aux == has_aux_, "spill chunk aux flag mismatch: " + path);

  auto data = std::make_shared<ChunkData>();
  Columns::for_each(data->cols, aux,
                    [&](auto& col, Col) { read_col(in, col, rows); });
  WASP_CHECK_MSG(in.p == in.end, "trailing bytes in spill chunk: " + path);

  loads_.add(1);
  bytes_read_.add(file.size());
  const std::size_t now =
      residency_->resident.fetch_add(1, std::memory_order_relaxed) + 1;
  // Only arm the destructor's decrement once the increment happened — a
  // throw above must not underflow the counter.
  data->residency = residency_;
  std::size_t peak = residency_->peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !residency_->peak.compare_exchange_weak(peak, now,
                                                 std::memory_order_relaxed)) {
  }
  return data;
}

void SpillColumnStore::evict_lru_back_locked() const {
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  const auto it = cache_.find(victim);
  if (it != cache_.end()) {
    if (it->second.prefetched) {
      prefetch_wasted_.add(1);
    }
    cache_.erase(it);
  }
  evictions_.add(1);
}

void SpillColumnStore::make_room_locked() const {
  while (cache_.size() + inflight_.size() >= opts_.max_resident_chunks &&
         !lru_.empty()) {
    evict_lru_back_locked();
  }
}

std::shared_ptr<const SpillColumnStore::ChunkData>
SpillColumnStore::acquire_chunk(std::size_t index, bool for_prefetch) const {
  std::promise<std::shared_ptr<const ChunkData>> promise;
  std::shared_future<std::shared_ptr<const ChunkData>> fut;
  bool loader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = cache_.find(index); it != cache_.end()) {
      if (for_prefetch) return it->second.data;
      hits_.add(1);
      if (it->second.prefetched) {
        it->second.prefetched = false;
        prefetch_hits_.add(1);
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.data;
    }
    if (const auto fit = inflight_.find(index); fit != inflight_.end()) {
      if (for_prefetch) return nullptr;  // someone is already on it
      fut = fit->second;
    } else {
      loader = true;
      // Make room before the load so the resident set stays bounded even
      // while the read happens off-lock; pinned victims survive through
      // their cursors' pins.
      make_room_locked();
      fut = promise.get_future().share();
      inflight_.emplace(index, fut);
    }
  }

  if (!loader) {
    // Share the in-flight load instead of stampeding the disk. get()
    // rethrows the loader's exception for corrupt chunks.
    std::shared_ptr<const ChunkData> data = fut.get();
    std::lock_guard<std::mutex> lock(mu_);
    hits_.add(1);
    // The loader published the entry before fulfilling the promise. Only
    // the first reader to find it still flagged counts the prefetch as a
    // hit, however many readers waited on the same load.
    if (const auto it = cache_.find(index);
        it != cache_.end() && it->second.prefetched) {
      it->second.prefetched = false;
      prefetch_hits_.add(1);
    }
    return data;
  }

  // Loader path: the disk read and decode happen with mu_ released, so
  // other chunks keep flowing to other analyzer threads meanwhile.
  std::shared_ptr<const ChunkData> data;
  try {
    data = load_chunk(index);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(index);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(index);
    lru_.push_front(index);
    cache_[index] = CacheEntry{data, lru_.begin(), for_prefetch};
    // Concurrent loaders can overshoot the cap between make-room and
    // insert; trim from the cold end (never the entry just inserted).
    while (cache_.size() > opts_.max_resident_chunks && lru_.size() > 1) {
      evict_lru_back_locked();
    }
    if (for_prefetch) {
      prefetch_issued_.add(1);
    }
  }
  promise.set_value(data);
  return data;
}

void SpillColumnStore::maybe_schedule_prefetch(std::size_t just_served) const {
  if (!prefetching_) return;
  bool sequential;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sequential = just_served == 0 || (last_seq_chunk_ != kNoChunk &&
                                      just_served == last_seq_chunk_ + 1);
    last_seq_chunk_ = just_served;
  }
  if (!sequential || just_served + 1 >= chunks_written_) return;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    pf_target_ = just_served + 1;
  }
  io_cv_.notify_all();
}

ChunkColumns SpillColumnStore::view_of(const ChunkData& data,
                                       std::size_t base) const {
  const Columns& c = data.cols;
  ChunkColumns v;
  v.base = base;
  v.rows = c.rows();
  v.app = c.app.data();
  v.rank = c.rank.data();
  v.node = c.node.data();
  v.iface = c.iface.data();
  v.op = c.op.data();
  v.fs = c.fs.data();
  v.file = c.file.data();
  v.offset = c.offset.data();
  v.size = c.size.data();
  v.count = c.count.data();
  v.tstart = c.tstart.data();
  v.tend = c.tend.data();
  if (!c.path_idx.empty()) v.path_idx = c.path_idx.data();
  if (!c.file_size.empty()) v.file_size = c.file_size.data();
  return v;
}

ChunkHandle SpillColumnStore::chunk(std::size_t chunk_index) const {
  WASP_CHECK_MSG(finalized_, "reading a spill store before finalize()");
  WASP_CHECK_MSG(chunk_index < chunks_written_,
                 "spill chunk index out of range");
  const std::shared_ptr<const ChunkData> data =
      acquire_chunk(chunk_index, /*for_prefetch=*/false);
  maybe_schedule_prefetch(chunk_index);
  ChunkHandle h;
  h.cols = view_of(*data, chunk_index * opts_.chunk_rows);
  h.pin = std::shared_ptr<const void>(data, data.get());
  return h;
}

bool SpillColumnStore::chunk_cached(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.find(index) != cache_.end();
}

std::uint32_t SpillColumnStore::path_idx_at(std::size_t i) const {
  WASP_CHECK_MSG(has_aux_, "spill store carries no path column");
  const ChunkHandle h = chunk(i / opts_.chunk_rows);
  return h.cols.path_idx[i - h.cols.base];
}

fs::Bytes SpillColumnStore::file_size_at(std::size_t i) const {
  WASP_CHECK_MSG(has_aux_, "spill store carries no file-size column");
  const ChunkHandle h = chunk(i / opts_.chunk_rows);
  return h.cols.file_size[i - h.cols.base];
}

std::size_t SpillColumnStore::resident_chunks() const noexcept {
  return residency_->resident.load(std::memory_order_relaxed);
}

std::size_t SpillColumnStore::peak_resident_chunks() const noexcept {
  return residency_->peak.load(std::memory_order_relaxed);
}

IoStats SpillColumnStore::io_stats() const {
  IoStats s;
  s.chunk_loads = loads_.value();
  s.cache_hits = hits_.value();
  s.evictions = evictions_.value();
  s.prefetch_issued = prefetch_issued_.value();
  s.prefetch_hits = prefetch_hits_.value();
  s.prefetch_wasted = prefetch_wasted_.value();
  s.bytes_written = bytes_written_.value();
  s.bytes_read = bytes_read_.value();
  s.raw_bytes = raw_bytes_.value();
  for (std::size_t c = 0; c < kNumCols; ++c) {
    if (col_raw_[c] == 0) continue;
    s.columns.push_back({kColNames[c], col_raw_[c], col_stored_[c]});
  }
  return s;
}

}  // namespace wasp::analysis
