#include "pattern/pattern.hpp"

#include "util/error.hpp"

namespace wasp::pattern {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kGroup: return "group";
    case OpKind::kOpen: return "open";
    case OpKind::kClose: return "close";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kPread: return "pread";
    case OpKind::kPwrite: return "pwrite";
    case OpKind::kPreadSync: return "pread_sync";
    case OpKind::kPwriteSync: return "pwrite_sync";
    case OpKind::kSeek: return "seek";
    case OpKind::kSeekBatch: return "seek_batch";
    case OpKind::kSeekIfWrap: return "seek_if_wrap";
    case OpKind::kReadScattered: return "read_scattered";
    case OpKind::kStat: return "stat";
    case OpKind::kCompute: return "compute";
    case OpKind::kGpuCompute: return "gpu_compute";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kSignal: return "signal";
    case OpKind::kWaitEvent: return "wait_event";
    case OpKind::kSpawn: return "spawn";
    case OpKind::kPacedRead: return "paced_read";
  }
  return "?";
}

const char* to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kPosix: return "posix";
    case Layer::kStdio: return "stdio";
    case Layer::kHdf5: return "hdf5";
    case Layer::kCompressed: return "compressed";
  }
  return "?";
}

const char* to_string(io::OpenMode m) noexcept {
  switch (m) {
    case io::OpenMode::kRead: return "read";
    case io::OpenMode::kWrite: return "write";
    case io::OpenMode::kReadWrite: return "readwrite";
    case io::OpenMode::kAppend: return "append";
  }
  return "?";
}

OpKind op_kind_from(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(OpKind::kPacedRead); ++k) {
    if (s == to_string(static_cast<OpKind>(k))) return static_cast<OpKind>(k);
  }
  throw util::SimError("pattern: unknown op kind '" + s + "'");
}

Layer layer_from(const std::string& s) {
  for (int l = 0; l <= static_cast<int>(Layer::kCompressed); ++l) {
    if (s == to_string(static_cast<Layer>(l))) return static_cast<Layer>(l);
  }
  throw util::SimError("pattern: unknown layer '" + s + "'");
}

io::OpenMode open_mode_from(const std::string& s) {
  for (int m = 0; m <= static_cast<int>(io::OpenMode::kAppend); ++m) {
    if (s == to_string(static_cast<io::OpenMode>(m))) {
      return static_cast<io::OpenMode>(m);
    }
  }
  throw util::SimError("pattern: unknown open mode '" + s + "'");
}

const std::string* JobPattern::find_meta(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JobPattern::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta.emplace_back(key, value);
}

namespace ops {

Op open(Layer l, std::string handle, std::string path, io::OpenMode mode) {
  Op o;
  o.kind = OpKind::kOpen;
  o.layer = l;
  o.handle = std::move(handle);
  o.path = std::move(path);
  o.mode = mode;
  return o;
}

Op close(Layer l, std::string handle) {
  Op o;
  o.kind = OpKind::kClose;
  o.layer = l;
  o.handle = std::move(handle);
  return o;
}

namespace {
Op transfer(OpKind kind, Layer l, std::string handle, Expr size, Expr count,
            Expr offset) {
  Op o;
  o.kind = kind;
  o.layer = l;
  o.handle = std::move(handle);
  o.size = std::move(size);
  o.count = std::move(count);
  o.offset = std::move(offset);
  return o;
}
}  // namespace

Op read(Layer l, std::string handle, Expr size, Expr count, Expr offset) {
  return transfer(OpKind::kRead, l, std::move(handle), std::move(size),
                  std::move(count), std::move(offset));
}

Op write(Layer l, std::string handle, Expr size, Expr count, Expr offset) {
  return transfer(OpKind::kWrite, l, std::move(handle), std::move(size),
                  std::move(count), std::move(offset));
}

Op pread(std::string handle, Expr offset, Expr size, Expr count) {
  return transfer(OpKind::kPread, Layer::kPosix, std::move(handle),
                  std::move(size), std::move(count), std::move(offset));
}

Op pwrite(std::string handle, Expr offset, Expr size, Expr count) {
  return transfer(OpKind::kPwrite, Layer::kPosix, std::move(handle),
                  std::move(size), std::move(count), std::move(offset));
}

Op pwrite_sync(std::string handle, Expr offset, Expr size, Expr count) {
  return transfer(OpKind::kPwriteSync, Layer::kPosix, std::move(handle),
                  std::move(size), std::move(count), std::move(offset));
}

Op seek(Layer l, std::string handle, Expr offset) {
  Op o;
  o.kind = OpKind::kSeek;
  o.layer = l;
  o.handle = std::move(handle);
  o.offset = std::move(offset);
  return o;
}

Op seek_batch(Layer l, std::string handle, Expr count) {
  Op o;
  o.kind = OpKind::kSeekBatch;
  o.layer = l;
  o.handle = std::move(handle);
  o.count = std::move(count);
  return o;
}

Op seek_if_wrap(std::string handle, Expr bytes, Expr limit) {
  Op o;
  o.kind = OpKind::kSeekIfWrap;
  o.layer = Layer::kStdio;
  o.handle = std::move(handle);
  o.wrap_bytes = std::move(bytes);
  o.wrap_limit = std::move(limit);
  return o;
}

Op read_scattered(std::string handle, Expr size, Expr count, Expr fetch_ops) {
  Op o = transfer(OpKind::kReadScattered, Layer::kStdio, std::move(handle),
                  std::move(size), std::move(count), {});
  o.fetch_ops = std::move(fetch_ops);
  return o;
}

Op stat(std::string path) {
  Op o;
  o.kind = OpKind::kStat;
  o.path = std::move(path);
  return o;
}

Op compute(std::uint64_t ns, double jitter_lo, double jitter_span) {
  Op o;
  o.kind = OpKind::kCompute;
  o.duration_ns = ns;
  o.jitter_lo = jitter_lo;
  o.jitter_span = jitter_span;
  return o;
}

Op gpu_compute(std::uint64_t ns, double jitter_lo, double jitter_span) {
  Op o = compute(ns, jitter_lo, jitter_span);
  o.kind = OpKind::kGpuCompute;
  return o;
}

Op barrier() {
  Op o;
  o.kind = OpKind::kBarrier;
  return o;
}

Op allreduce(std::string comm, Expr bytes, bool record) {
  Op o;
  o.kind = OpKind::kAllreduce;
  o.comm = std::move(comm);
  o.size = std::move(bytes);
  o.record = record;
  return o;
}

Op signal(std::string event) {
  Op o;
  o.kind = OpKind::kSignal;
  o.event = std::move(event);
  return o;
}

Op wait_event(std::string event) {
  Op o;
  o.kind = OpKind::kWaitEvent;
  o.event = std::move(event);
  return o;
}

Op spawn(std::string app, std::vector<Op> body) {
  Op o;
  o.kind = OpKind::kSpawn;
  o.app = std::move(app);
  o.body = std::move(body);
  return o;
}

Op paced_read(std::string handle, Expr size, Expr count,
              std::uint64_t floor_ns) {
  Op o = transfer(OpKind::kPacedRead, Layer::kPosix, std::move(handle),
                  std::move(size), std::move(count), {});
  o.duration_ns = floor_ns;
  return o;
}

Op loop(std::string var, Expr begin, Expr end, std::vector<Op> body,
        Expr step, Expr when) {
  Op o;
  o.kind = OpKind::kGroup;
  o.var = std::move(var);
  o.begin = std::move(begin);
  o.end = std::move(end);
  o.step = std::move(step);
  o.when = std::move(when);
  o.body = std::move(body);
  return o;
}

Op when(Expr cond, std::vector<Op> body) {
  Op o;
  o.kind = OpKind::kGroup;
  o.when = std::move(cond);
  o.body = std::move(body);
  return o;
}

}  // namespace ops
}  // namespace wasp::pattern
