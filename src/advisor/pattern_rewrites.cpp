#include "advisor/pattern_rewrites.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "runtime/simulation.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace wasp::advisor {
namespace {

namespace po = pattern::ops;
using pattern::Expr;
using pattern::Op;
using pattern::OpKind;

/// Visit an op and its body, depth-first.
template <typename F>
void visit(Op& o, F&& f) {
  f(o);
  for (Op& child : o.body) visit(child, f);
}

/// Visit every op (depth-first) in every op vector of the pattern.
template <typename F>
void for_each_op(std::vector<Op>& ops, F&& f) {
  for (Op& o : ops) visit(o, f);
}

template <typename F>
void for_each_tree(pattern::JobPattern& pat, F&& f) {
  for (auto& g : pat.groups) {
    for (auto& ph : g.phases) f(ph.ops);
  }
  for (auto& st : pat.dag.stages) f(st.ops);
}

/// Rewrite quoted path prefixes inside an expression's text (size_of
/// arguments) and reparse.
Expr retarget_expr(const Expr& e, const std::string& from,
                   const std::string& to) {
  if (e.empty()) return e;
  const std::string needle = "\"" + from;
  std::string text = e.text();
  bool changed = false;
  for (std::size_t pos = 0; (pos = text.find(needle, pos)) !=
                            std::string::npos;) {
    text.replace(pos, needle.size(), "\"" + to);
    pos += to.size() + 1;
    changed = true;
  }
  return changed ? Expr(text) : e;
}

/// Evaluate an expression that should be a compile-time constant; returns
/// false when it references lane state (env vars, size_of).
bool const_value(const Expr& e, std::int64_t* out) {
  if (e.empty()) return false;
  pattern::Env env;
  pattern::EvalContext ctx;
  ctx.env = &env;
  try {
    *out = e.eval(ctx);
    return true;
  } catch (const util::SimError&) {
    return false;
  }
}

/// A numeric meta value, or `fallback` when absent or malformed.
std::uint64_t meta_u64(const pattern::JobPattern& pat, const char* key,
                       std::uint64_t fallback = 0) {
  const std::string* s = pat.find_meta(key);
  if (s == nullptr || s->empty()) return fallback;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s->c_str(), &end, 10);
  return *end == '\0' ? v : fallback;
}

std::string meta_str(const pattern::JobPattern& pat, const char* key) {
  const std::string* s = pat.find_meta(key);
  return s == nullptr ? std::string() : *s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

Expr lit(std::uint64_t v) { return Expr::lit(static_cast<std::int64_t>(v)); }

/// "max(size_of(\"path\") / unit, 1)": whole `unit` pieces of a file.
Expr pieces_of(const std::string& path, std::uint64_t unit) {
  return Expr("max(size_of(\"" + path + "\") / " + std::to_string(unit) +
              ", 1)");
}

/// §IV-D.4 (shm redirect): rewrite every path that starts with `from` to
/// start with `to` — op path templates and size_of("...") references
/// inside expressions alike.
void redirect_prefix(pattern::JobPattern& pat, const std::string& from,
                     const std::string& to) {
  if (from.empty() || from == to) return;
  for_each_tree(pat, [&](std::vector<Op>& ops) {
    for_each_op(ops, [&](Op& o) {
      if (o.path.compare(0, from.size(), from) == 0) {
        o.path = to + o.path.substr(from.size());
      }
      for (Expr* e : {&o.offset, &o.size, &o.count, &o.fetch_ops,
                      &o.wrap_bytes, &o.wrap_limit, &o.begin, &o.end,
                      &o.step, &o.when}) {
        *e = retarget_expr(*e, from, to);
      }
    });
  });
}

/// §IV-D.4: consumers read the "locality.local" copy instead of the
/// cross-node "locality.remote" one.
void read_local_copies(pattern::JobPattern& pat) {
  redirect_prefix(pat, meta_str(pat, "locality.remote"),
                  meta_str(pat, "locality.local"));
}

/// §IV-D.1 (data transformation): reads and writes on handles opened under
/// "checkpoint.dir" go through the compressed layer.
void compress_checkpoints(pattern::JobPattern& pat) {
  const std::string dir = meta_str(pat, "checkpoint.dir");
  if (dir.empty()) return;
  for_each_tree(pat, [&](std::vector<Op>& ops) {
    std::set<std::string> ckpt;  // handles open on a checkpoint
    for_each_op(ops, [&](Op& o) {
      if (o.kind == OpKind::kOpen) {
        ckpt.erase(o.handle);
        if (starts_with(o.path, dir)) ckpt.insert(o.handle);
      } else if ((o.kind == OpKind::kRead || o.kind == OpKind::kWrite) &&
                 o.layer == pattern::Layer::kPosix && ckpt.count(o.handle)) {
        o.layer = pattern::Layer::kCompressed;
      }
    });
  });
}

/// §IV-D.2 (SCR-style async drain): checkpoints move from "checkpoint.dir"
/// to `fast_mount` + "checkpoint.tier_dir". Right after the top-level op
/// that last closes one written in a phase, a spawned task copies it back
/// to the PFS in "checkpoint.transfer" pieces while the job goes on.
void drain_checkpoints(pattern::JobPattern& pat,
                       const std::string& fast_mount) {
  const std::string dir = meta_str(pat, "checkpoint.dir");
  const std::string fast_dir =
      fast_mount + meta_str(pat, "checkpoint.tier_dir");
  const std::uint64_t transfer = meta_u64(pat, "checkpoint.transfer", 1);
  redirect_prefix(pat, dir, fast_dir);
  for (auto& g : pat.groups) {
    for (auto& ph : g.phases) {
      std::size_t at = 0;
      std::string src;
      std::map<std::string, std::string> writing;  // handle -> path
      for (std::size_t i = 0; i < ph.ops.size(); ++i) {
        visit(ph.ops[i], [&](Op& o) {
          if (o.kind == OpKind::kOpen) {
            writing.erase(o.handle);
            if (o.mode != io::OpenMode::kRead &&
                starts_with(o.path, fast_dir)) {
              writing[o.handle] = o.path;
            }
          } else if (o.kind == OpKind::kClose && writing.count(o.handle)) {
            at = i + 1;
            src = writing[o.handle];
          }
        });
      }
      if (src.empty()) continue;
      const Expr n = pieces_of(src, transfer);
      const auto posix = pattern::Layer::kPosix;
      ph.ops.insert(
          ph.ops.begin() + static_cast<std::ptrdiff_t>(at),
          po::spawn(ph.app,
                    {po::open(posix, "in", src, io::OpenMode::kRead),
                     po::open(posix, "out", dir + src.substr(fast_dir.size()),
                              io::OpenMode::kWrite),
                     po::read(posix, "in", lit(transfer), n),
                     po::write(posix, "out", lit(transfer), n),
                     po::close(posix, "in"), po::close(posix, "out")}));
    }
  }
}

/// §IV-D.1 / §V-B: intermediates move from "intermediates.dir" to
/// `tier_mount` + "intermediates.tier_dir". Node-local files are not
/// reachable cross-node, so consumers read their own node's copy, and the
/// "intermediates.drain_app" phase ends (before its closing barrier) by
/// draining "intermediates.drain_src" to "intermediates.drain_dst" on the
/// PFS: buffered 1 MiB reads, synchronous 64 KiB writes.
void intermediates_to_node_local(pattern::JobPattern& pat,
                                 const std::string& tier_mount) {
  read_local_copies(pat);
  const std::string src = meta_str(pat, "intermediates.drain_src");
  const std::string app = meta_str(pat, "intermediates.drain_app");
  const std::vector<Op> drain = {
      po::open(pattern::Layer::kStdio, "seg", src, io::OpenMode::kRead),
      po::read(pattern::Layer::kStdio, "seg", lit(util::kMiB),
               pieces_of(src, util::kMiB)),
      po::close(pattern::Layer::kStdio, "seg"),
      po::open(pattern::Layer::kPosix, "dst",
               meta_str(pat, "intermediates.drain_dst"), io::OpenMode::kWrite),
      po::pwrite_sync("dst", lit(0), lit(64 * util::kKiB),
                      pieces_of(src, 64 * util::kKiB)),
      po::close(pattern::Layer::kPosix, "dst")};
  for (auto& g : pat.groups) {
    for (auto& ph : g.phases) {
      if (src.empty() || ph.app != app) continue;
      auto at = ph.ops.end();
      if (at != ph.ops.begin() && std::prev(at)->kind == OpKind::kBarrier) {
        --at;
      }
      ph.ops.insert(at, drain.begin(), drain.end());
    }
  }
  redirect_prefix(pat, meta_str(pat, "intermediates.dir"),
                  tier_mount + meta_str(pat, "intermediates.tier_dir"));
}

/// §IV-D.1: stage the inputs a compiler described in the pattern's meta
/// ("preload.*" keys: source dir, file suffix and count, nodes, ranks per
/// node, file size, copy chunk, paced-copy floor) into
/// `tier_mount + "/" + pat.name + "/"`. Every path under the source dir is
/// retargeted to the node-local copies, and an MPIFileUtils-style paced
/// parallel copy loop (plus a barrier) is prepended to the first phase of
/// the first lane group.
void apply_preload(pattern::JobPattern& pat, const std::string& tier_mount) {
  const std::string src_dir = meta_str(pat, "preload.src_dir");
  const std::string dst_dir = tier_mount + "/" + pat.name + "/";
  const std::string suffix = meta_str(pat, "preload.suffix");
  const std::uint64_t files = meta_u64(pat, "preload.files");
  const std::uint64_t nodes = meta_u64(pat, "preload.nodes", 1);
  const std::uint64_t ppn = meta_u64(pat, "preload.ppn", 1);
  const std::uint64_t chunk = meta_u64(pat, "preload.chunk", 4 * util::kMiB);
  WASP_CHECK_MSG(!pat.groups.empty() && !pat.groups.front().phases.empty(),
                 "pattern: apply_preload needs at least one lane phase");
  WASP_CHECK_MSG(files > 0 && chunk > 0,
                 "pattern: preload meta has no files / zero chunk");

  // Consumers read the node-local copies...
  redirect_prefix(pat, src_dir, dst_dir);

  // ...which the prepended paced copy loop creates. Every local rank
  // stages an interleaved slice of its node's shard: file indices
  // node + local*nodes + m*(ppn*nodes).
  const std::string src = src_dir + "{i}" + suffix;
  const std::string dst = dst_dir + "{i}" + suffix;
  const Expr chunks =
      lit(std::max<std::uint64_t>(meta_u64(pat, "preload.file_size") / chunk,
                                  1));
  std::vector<Op> body;
  body.push_back(po::stat(src));
  body.push_back(po::open(pattern::Layer::kPosix, "pre_src", src,
                          io::OpenMode::kRead));
  body.push_back(po::open(pattern::Layer::kPosix, "pre_dst", dst,
                          io::OpenMode::kWrite));
  body.push_back(po::paced_read("pre_src", lit(chunk), chunks,
                                meta_u64(pat, "preload.floor_ns")));
  body.push_back(
      po::write(pattern::Layer::kPosix, "pre_dst", lit(chunk), chunks));
  body.push_back(po::close(pattern::Layer::kPosix, "pre_src"));
  body.push_back(po::close(pattern::Layer::kPosix, "pre_dst"));

  std::vector<Op> pre;
  pre.push_back(po::loop(
      "i", Expr("node + local * " + std::to_string(nodes)), lit(files),
      std::move(body),
      Expr(std::to_string(ppn) + " * " + std::to_string(nodes))));
  pre.push_back(po::barrier());

  auto& ops = pat.groups.front().phases.front().ops;
  ops.insert(ops.begin(), std::make_move_iterator(pre.begin()),
             std::make_move_iterator(pre.end()));
}

/// Handles that must stay on their layer: ops that exist on exactly one
/// interface pin the file handle they touch.
void collect_pinned(const std::vector<Op>& ops,
                    std::set<std::string>* pinned) {
  for (const Op& o : ops) {
    switch (o.kind) {
      case OpKind::kPread:
      case OpKind::kPwrite:
      case OpKind::kPreadSync:
      case OpKind::kPwriteSync:
      case OpKind::kReadScattered:
      case OpKind::kSeekIfWrap:
      case OpKind::kPacedRead:
        pinned->insert(o.handle);
        break;
      case OpKind::kOpen:
        if (o.layer == pattern::Layer::kHdf5 ||
            o.layer == pattern::Layer::kCompressed) {
          pinned->insert(o.handle);
        }
        break;
      case OpKind::kRead:
      case OpKind::kWrite:
        if (o.layer == pattern::Layer::kCompressed ||
            o.layer == pattern::Layer::kHdf5) {
          pinned->insert(o.handle);
        }
        break;
      default:
        break;
    }
    if (o.kind != OpKind::kSpawn && !o.body.empty()) {
      collect_pinned(o.body, pinned);
    }
  }
}

void rewrite_layer(std::vector<Op>& ops, const std::set<std::string>& pinned,
                   pattern::Layer layer, int* n) {
  for (Op& o : ops) {
    if (o.kind == OpKind::kSpawn) {
      // A spawned body has its own handle scope.
      std::set<std::string> inner;
      collect_pinned(o.body, &inner);
      rewrite_layer(o.body, inner, layer, n);
      continue;
    }
    switch (o.kind) {
      case OpKind::kOpen:
      case OpKind::kClose:
      case OpKind::kRead:
      case OpKind::kWrite:
      case OpKind::kSeek:
      case OpKind::kSeekBatch:
        if ((o.layer == pattern::Layer::kPosix ||
             o.layer == pattern::Layer::kStdio) &&
            o.layer != layer && pinned.count(o.handle) == 0) {
          o.layer = layer;
          ++*n;
        }
        break;
      default:
        break;
    }
    if (!o.body.empty()) rewrite_layer(o.body, pinned, layer, n);
  }
}

// ---- The rewrite table ----------------------------------------------------

/// Argument kinds. Each parser throws util::SimError on a malformed value.
enum class Arg { kSize, kCount, kRatio, kCodec, kLayer, kText };

util::Bytes size_arg(const std::string& s) {
  // Plain byte counts and the tables' "16MB" format alike.
  if (auto b = util::parse_bytes(s)) return *b;
  if (auto n = util::parse_uint(s)) return static_cast<util::Bytes>(*n);
  throw util::SimError("bad size: '" + s + "'");
}

int count_arg(const std::string& s) {
  const auto n = util::parse_uint(s);
  if (!n || *n > INT_MAX) throw util::SimError("bad count: '" + s + "'");
  return static_cast<int>(*n);
}

double ratio_arg(const std::string& s) {
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v) ||
      v <= 0) {
    throw util::SimError("bad ratio: '" + s + "'");
  }
  return v;
}

bool gpu_arg(const std::string& s) {
  if (s != "cpu" && s != "gpu") {
    throw util::SimError("bad codec: '" + s + "' (want cpu|gpu)");
  }
  return s == "gpu";
}

void check_arg(Arg kind, const std::string& s) {
  switch (kind) {
    case Arg::kSize: size_arg(s); break;
    case Arg::kCount: count_arg(s); break;
    case Arg::kRatio: ratio_arg(s); break;
    case Arg::kCodec: gpu_arg(s); break;
    case Arg::kLayer: pattern::layer_from(s); break;
    case Arg::kText:
      if (s.empty()) throw util::SimError("empty argument");
      break;
  }
}

/// Mount point of the node-local tier named `name`.
std::string tier(runtime::Simulation& sim, const std::string& name) {
  return sim.node_local(name).mount();
}

using Args = std::vector<std::string>;
using Pat = pattern::JobPattern;
using Sim = runtime::Simulation;

struct Entry {
  const char* name;
  std::vector<Arg> args;
  void (*apply)(Pat&, const Args&, Sim&);
};

/// Every rewrite, in canonical order: the order RuleEngine::configure
/// applies them. Compression precedes the drain, which moves the
/// checkpoints compression marked off "checkpoint.dir"; the reverse order
/// would compress the drain's PFS copy instead. The last three are what-ifs
/// no rule emits.
const std::vector<Entry>& table() {
  static const std::vector<Entry> entries = {
      {"stdio-buffer", {Arg::kSize},
       [](Pat& pat, const Args& a, Sim&) {
         const util::Bytes buffer = size_arg(a[0]);
         for (auto& g : pat.groups) g.stdio_buffer = buffer;
         pat.dag.stdio_buffer = buffer;
       }},
      {"hdf5-chunk", {Arg::kSize},
       [](Pat& pat, const Args& a, Sim&) {
         for (auto& g : pat.groups) g.hdf5.chunk_size = size_arg(a[0]);
       }},
      {"mpiio", {Arg::kSize, Arg::kCount},
       [](Pat& pat, const Args& a, Sim&) {
         for (auto& g : pat.groups) {
           g.mpiio.cb_buffer = size_arg(a[0]);
           g.mpiio.aggregators_per_node = count_arg(a[1]);
         }
       }},
      {"locality", {},
       [](Pat& pat, const Args&, Sim&) {
         pat.dag.locality_aware = true;
         read_local_copies(pat);
       }},
      {"compress", {Arg::kRatio, Arg::kCodec},
       [](Pat& pat, const Args& a, Sim&) {
         for (auto& g : pat.groups) {
           g.codec.ratio = ratio_arg(a[0]);
           g.codec.use_gpu = gpu_arg(a[1]);
         }
         compress_checkpoints(pat);
       }},
      {"async-drain", {Arg::kText},
       [](Pat& pat, const Args& a, Sim& sim) {
         if (!pat.find_meta("checkpoint.dir")) return;
         drain_checkpoints(pat, sim.has_shared_bb() ? sim.shared_bb().mount()
                                                    : tier(sim, a[0]));
       }},
      {"intermediates", {Arg::kText},
       [](Pat& pat, const Args& a, Sim& sim) {
         if (!pat.find_meta("intermediates.dir")) return;
         intermediates_to_node_local(pat, tier(sim, a[0]));
       }},
      {"preload", {Arg::kText},
       [](Pat& pat, const Args& a, Sim& sim) {
         if (!pat.find_meta("preload.src_dir")) return;
         apply_preload(pat, tier(sim, a[0]));
       }},
      {"transfer", {Arg::kSize},
       [](Pat& pat, const Args& a, Sim&) {
         set_transfer_size(pat, size_arg(a[0]));
       }},
      {"interface", {Arg::kLayer},
       [](Pat& pat, const Args& a, Sim&) {
         set_interface(pat, pattern::layer_from(a[0]));
       }},
      {"redirect", {Arg::kText, Arg::kText},
       [](Pat& pat, const Args& a, Sim&) { redirect_prefix(pat, a[0], a[1]); }},
  };
  return entries;
}

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : table()) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

int rewrite_arity(const std::string& name) {
  const Entry* e = find_entry(name);
  return e == nullptr ? -1 : static_cast<int>(e->args.size());
}

std::size_t rewrite_rank(const std::string& name) {
  const Entry* e = find_entry(name);
  if (e == nullptr) throw util::SimError("unknown rewrite: " + name);
  return static_cast<std::size_t>(e - table().data());
}

void check_rewrite(const Rewrite& rw) {
  const Entry* e = find_entry(rw.name);
  if (e == nullptr) throw util::SimError("unknown rewrite: " + rw.name);
  if (rw.args.size() != e->args.size()) {
    throw util::SimError("rewrite " + rw.name + " takes " +
                         std::to_string(e->args.size()) + " argument(s), got " +
                         std::to_string(rw.args.size()));
  }
  for (std::size_t i = 0; i < rw.args.size(); ++i) {
    try {
      check_arg(e->args[i], rw.args[i]);
    } catch (const util::SimError& err) {
      throw util::SimError("rewrite " + rw.name + ": " + err.what());
    }
  }
}

void apply_rewrite(pattern::JobPattern& pat, const Rewrite& rw,
                   runtime::Simulation& sim) {
  check_rewrite(rw);
  find_entry(rw.name)->apply(pat, rw.args, sim);
}

std::string to_flags(const std::vector<Rewrite>& rewrites) {
  std::string out;
  for (const Rewrite& rw : rewrites) {
    out += (out.empty() ? "--" : " --") + rw.name;
    for (const std::string& a : rw.args) out += " " + a;
  }
  return out;
}

int set_transfer_size(pattern::JobPattern& pat, util::Bytes transfer) {
  WASP_CHECK_MSG(transfer > 0, "pattern: transfer size must be positive");
  int n = 0;
  for_each_tree(pat, [&](std::vector<Op>& ops) {
    for_each_op(ops, [&](Op& o) {
      switch (o.kind) {
        case OpKind::kRead:
        case OpKind::kWrite:
        case OpKind::kPread:
        case OpKind::kPwrite:
        case OpKind::kPreadSync:
        case OpKind::kPwriteSync:
          break;
        default:
          return;
      }
      std::int64_t size = 0;
      std::int64_t count = 1;
      if (!const_value(o.size, &size)) return;
      if (!o.count.empty() && !const_value(o.count, &count)) return;
      const std::int64_t total = size * count;
      if (total <= 0 || static_cast<util::Bytes>(size) == transfer) return;
      o.size = Expr::lit(static_cast<std::int64_t>(transfer));
      o.count = Expr::lit(std::max<std::int64_t>(
          total / static_cast<std::int64_t>(transfer), 1));
      ++n;
    });
  });
  return n;
}

int set_interface(pattern::JobPattern& pat, pattern::Layer layer) {
  if (layer != pattern::Layer::kPosix && layer != pattern::Layer::kStdio) {
    return 0;
  }
  int n = 0;
  for_each_tree(pat, [&](std::vector<Op>& ops) {
    std::set<std::string> pinned;
    collect_pinned(ops, &pinned);
    rewrite_layer(ops, pinned, layer, &n);
  });
  return n;
}

}  // namespace wasp::advisor
