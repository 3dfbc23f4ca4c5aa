// YAML serialization of the pattern IR.
//
// The dump is deterministic and canonical: fields appear in a fixed order,
// expression fields are emitted verbatim (their source text), and fields
// that are irrelevant to an op kind — or carry their default — are omitted.
// Loading a dumped pattern and dumping it again reproduces the bytes
// exactly; that property is what makes `wasp_pattern dump | edit | replay`
// trustworthy and is locked in by tests/test_pattern.cpp.
#include <cstdlib>
#include <set>

#include "pattern/pattern.hpp"
#include "util/error.hpp"
#include "util/yaml.hpp"
#include "util/yaml_reader.hpp"

namespace wasp::pattern {
namespace {

using util::yaml::Node;
using util::yaml::Writer;

// ---- dump ----------------------------------------------------------------

void dump_expr(Writer& y, const char* key, const Expr& e) {
  if (!e.empty()) y.scalar(key, e.text());
}

void dump_ops(Writer& y, const char* key, const std::vector<Op>& ops);

void dump_op(Writer& y, const Op& o) {
  y.begin_seq_item_map();
  y.scalar("op", to_string(o.kind));
  switch (o.kind) {
    case OpKind::kGroup:
      if (!o.var.empty()) y.scalar("var", o.var);
      dump_expr(y, "begin", o.begin);
      dump_expr(y, "end", o.end);
      dump_expr(y, "step", o.step);
      dump_expr(y, "when", o.when);
      break;
    case OpKind::kOpen:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      y.scalar("path", o.path);
      y.scalar("mode", to_string(o.mode));
      break;
    case OpKind::kClose:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      break;
    case OpKind::kRead:
    case OpKind::kWrite:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kPread:
    case OpKind::kPwrite:
    case OpKind::kPreadSync:
    case OpKind::kPwriteSync:
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kSeek:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      break;
    case OpKind::kSeekBatch:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kSeekIfWrap:
      y.scalar("handle", o.handle);
      dump_expr(y, "wrap_bytes", o.wrap_bytes);
      dump_expr(y, "wrap_limit", o.wrap_limit);
      break;
    case OpKind::kReadScattered:
      y.scalar("handle", o.handle);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      dump_expr(y, "fetch_ops", o.fetch_ops);
      break;
    case OpKind::kStat:
      y.scalar("path", o.path);
      break;
    case OpKind::kCompute:
    case OpKind::kGpuCompute:
      y.scalar("duration_ns", o.duration_ns);
      if (o.jitter_span != 0.0) {
        y.scalar("jitter_lo", o.jitter_lo);
        y.scalar("jitter_span", o.jitter_span);
      }
      break;
    case OpKind::kBarrier:
      break;
    case OpKind::kAllreduce:
      y.scalar("comm", o.comm);
      dump_expr(y, "size", o.size);
      if (!o.record) y.scalar("record", false);
      break;
    case OpKind::kSignal:
    case OpKind::kWaitEvent:
      y.scalar("event", o.event);
      break;
    case OpKind::kSpawn:
      y.scalar("app", o.app);
      break;
    case OpKind::kPacedRead:
      y.scalar("handle", o.handle);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      y.scalar("floor_ns", o.duration_ns);
      break;
  }
  if (!o.body.empty()) dump_ops(y, "body", o.body);
  y.end_map();
}

void dump_ops(Writer& y, const char* key, const std::vector<Op>& ops) {
  y.begin_seq(key);
  for (const Op& o : ops) dump_op(y, o);
  y.end_seq();
}

// ---- load ----------------------------------------------------------------

[[noreturn]] void bad(const std::string& what) {
  throw util::SimError("pattern yaml: " + what);
}

std::int64_t to_i64(const std::string& s, const std::string& key) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    bad("field '" + key + "' is not an integer: '" + s + "'");
  }
  return v;
}

double to_f64(const std::string& s, const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    bad("field '" + key + "' is not a number: '" + s + "'");
  }
  return v;
}

std::int64_t get_int(const Node& n, const std::string& key,
                     std::int64_t fallback) {
  const Node* f = n.find(key);
  if (f == nullptr) return fallback;
  return to_i64(f->scalar(), key);
}

double get_double(const Node& n, const std::string& key, double fallback) {
  const Node* f = n.find(key);
  if (f == nullptr) return fallback;
  return to_f64(f->scalar(), key);
}

bool get_bool(const Node& n, const std::string& key, bool fallback) {
  const Node* f = n.find(key);
  if (f == nullptr) return fallback;
  const std::string& s = f->scalar();
  if (s == "true") return true;
  if (s == "false") return false;
  bad("field '" + key + "' is not a bool: '" + s + "'");
}

std::string get_str(const Node& n, const std::string& key,
                    const std::string& fallback = "") {
  const Node* f = n.find(key);
  return f == nullptr ? fallback : f->scalar();
}

Expr get_expr(const Node& n, const std::string& key) {
  const Node* f = n.find(key);
  if (f == nullptr) return {};
  try {
    return Expr(f->scalar());
  } catch (const util::SimError& e) {
    bad("field '" + key + "': " + e.what());
  }
}

std::vector<Op> load_ops(const Node* seq, const std::string& where);

Op load_op(const Node& n, const std::string& where) {
  if (!n.is_map()) bad(where + ": op entry is not a map");
  const Node* kind = n.find("op");
  if (kind == nullptr || !kind->is_scalar()) {
    bad(where + ": op entry missing 'op' kind");
  }
  Op o;
  o.kind = op_kind_from(kind->scalar());
  const std::string layer = get_str(n, "layer");
  if (!layer.empty()) o.layer = layer_from(layer);
  o.handle = get_str(n, "handle");
  o.path = get_str(n, "path");
  const std::string mode = get_str(n, "mode");
  if (!mode.empty()) o.mode = open_mode_from(mode);
  o.offset = get_expr(n, "offset");
  o.size = get_expr(n, "size");
  o.count = get_expr(n, "count");
  o.fetch_ops = get_expr(n, "fetch_ops");
  o.wrap_bytes = get_expr(n, "wrap_bytes");
  o.wrap_limit = get_expr(n, "wrap_limit");
  o.duration_ns = static_cast<std::uint64_t>(
      get_int(n, o.kind == OpKind::kPacedRead ? "floor_ns" : "duration_ns",
              0));
  o.jitter_lo = get_double(n, "jitter_lo", 1.0);
  o.jitter_span = get_double(n, "jitter_span", 0.0);
  o.comm = get_str(n, "comm");
  o.record = get_bool(n, "record", true);
  o.event = get_str(n, "event");
  o.app = get_str(n, "app");
  o.var = get_str(n, "var");
  o.begin = get_expr(n, "begin");
  o.end = get_expr(n, "end");
  o.step = get_expr(n, "step");
  o.when = get_expr(n, "when");
  o.body = load_ops(n.find("body"), where);
  return o;
}

std::vector<Op> load_ops(const Node* seq, const std::string& where) {
  std::vector<Op> ops;
  if (seq == nullptr) return ops;
  if (!seq->is_seq()) bad(where + ": ops is not a sequence");
  for (const Node& item : seq->items()) ops.push_back(load_op(item, where));
  return ops;
}

/// Reject a name that refers to no declaration, so a typo fails at load
/// rather than inside replay.
void need(const std::set<std::string>& declared, const std::string& name,
          const char* what) {
  if (declared.count(name) == 0) {
    bad(std::string(what) + " '" + name + "' is not declared");
  }
}

/// Names a pattern declares up front: apps, comms, events.
struct Declared {
  std::set<std::string> apps;
  std::set<std::string> comms;
  std::set<std::string> events;
};

void check_names(const std::vector<Op>& ops, const Declared& d) {
  for (const Op& o : ops) {
    if (o.kind == OpKind::kAllreduce) need(d.comms, o.comm, "allreduce comm");
    if (o.kind == OpKind::kSignal || o.kind == OpKind::kWaitEvent) {
      need(d.events, o.event, "event");
    }
    if (o.kind == OpKind::kSpawn) need(d.apps, o.app, "spawn app");
    check_names(o.body, d);
  }
}

}  // namespace

std::string to_yaml(const JobPattern& pat) {
  Writer y;
  y.scalar("name", pat.name);
  if (pat.faults.enabled()) y.scalar("faults", pat.faults.to_spec());
  if (!pat.apps.empty()) {
    y.begin_seq("apps");
    for (const auto& a : pat.apps) y.scalar_item(a);
    y.end_seq();
  }
  if (!pat.comms.empty()) {
    y.begin_seq("comms");
    for (const CommDecl& c : pat.comms) {
      y.begin_seq_item_map();
      y.scalar("name", c.name);
      y.scalar("procs", c.procs);
      y.scalar("nodes", c.nodes);
      if (c.per_node) y.scalar("per_node", true);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.events.empty()) {
    y.begin_seq("events");
    for (const EventDecl& e : pat.events) {
      y.begin_seq_item_map();
      y.scalar("name", e.name);
      y.scalar("countdown", e.countdown);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.meta.empty()) {
    y.begin_seq("meta");
    for (const auto& [k, v] : pat.meta) {
      y.begin_seq_item_map();
      y.scalar("key", k);
      y.scalar("value", v);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.groups.empty()) {
    y.begin_seq("groups");
    for (const LaneGroup& g : pat.groups) {
      y.begin_seq_item_map();
      y.scalar("comm", g.comm);
      y.scalar("rng_seed", g.rng_seed);
      y.scalar("stdio_buffer", static_cast<std::uint64_t>(g.stdio_buffer));
      y.begin_map("hdf5");
      y.scalar("chunk_size", static_cast<std::uint64_t>(g.hdf5.chunk_size));
      y.scalar("use_mpiio", g.hdf5.use_mpiio);
      y.scalar("meta_reads_per_open", g.hdf5.meta_reads_per_open);
      y.scalar("meta_reads_per_access", g.hdf5.meta_reads_per_access);
      y.end_map();
      y.begin_map("mpiio");
      y.scalar("cb_buffer", static_cast<std::uint64_t>(g.mpiio.cb_buffer));
      y.scalar("aggregators_per_node", g.mpiio.aggregators_per_node);
      y.end_map();
      y.begin_map("codec");
      y.scalar("cpu_bps", g.codec.cpu_bps);
      y.scalar("gpu_bps", g.codec.gpu_bps);
      y.scalar("use_gpu", g.codec.use_gpu);
      y.scalar("ratio", g.codec.ratio);
      y.end_map();
      y.begin_seq("phases");
      for (const PhasePattern& ph : g.phases) {
        y.begin_seq_item_map();
        y.scalar("app", ph.app);
        dump_ops(y, "ops", ph.ops);
        y.end_map();
      }
      y.end_seq();
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.dag.empty()) {
    y.begin_map("dag");
    y.scalar("slots", pat.dag.slots);
    y.scalar("nodes", pat.dag.nodes);
    y.scalar("locality_aware", pat.dag.locality_aware);
    y.scalar("stdio_buffer",
             static_cast<std::uint64_t>(pat.dag.stdio_buffer));
    y.begin_seq("stages");
    for (const DagStage& s : pat.dag.stages) {
      y.begin_seq_item_map();
      y.scalar("app", s.app);
      y.scalar("count", s.count);
      y.scalar("rng_seed", s.rng_seed);
      if (!s.deps.empty()) {
        y.begin_seq("deps");
        for (const DagDep& d : s.deps) {
          y.begin_seq_item_map();
          y.scalar("stage", d.stage);
          dump_expr(y, "index", d.index);
          y.end_map();
        }
        y.end_seq();
      }
      dump_ops(y, "ops", s.ops);
      y.end_map();
    }
    y.end_seq();
    y.end_map();
  }
  return y.str();
}

JobPattern pattern_from_yaml(const std::string& text) {
  const Node root = util::yaml::parse(text);
  if (!root.is_map()) bad("document root is not a map");
  JobPattern pat;
  pat.name = get_str(root, "name");
  if (const Node* faults = root.find("faults")) {
    if (!faults->is_scalar()) bad("'faults' is not a scalar spec string");
    pat.faults = sim::FaultPlan::parse(faults->scalar());
  }
  if (const Node* apps = root.find("apps")) {
    if (!apps->is_seq()) bad("'apps' is not a sequence");
    for (const Node& a : apps->items()) pat.apps.push_back(a.scalar());
  }
  if (const Node* comms = root.find("comms")) {
    if (!comms->is_seq()) bad("'comms' is not a sequence");
    for (const Node& c : comms->items()) {
      CommDecl d;
      d.name = get_str(c, "name");
      if (d.name.empty()) bad("comm missing 'name'");
      d.procs = static_cast<int>(get_int(c, "procs", 0));
      d.nodes = static_cast<int>(get_int(c, "nodes", 1));
      d.per_node = get_bool(c, "per_node", false);
      pat.comms.push_back(std::move(d));
    }
  }
  if (const Node* events = root.find("events")) {
    if (!events->is_seq()) bad("'events' is not a sequence");
    for (const Node& e : events->items()) {
      EventDecl d;
      d.name = get_str(e, "name");
      if (d.name.empty()) bad("event missing 'name'");
      d.countdown = static_cast<int>(get_int(e, "countdown", 1));
      pat.events.push_back(std::move(d));
    }
  }
  if (const Node* meta = root.find("meta")) {
    if (!meta->is_seq()) bad("'meta' is not a sequence");
    for (const Node& m : meta->items()) {
      pat.meta.emplace_back(get_str(m, "key"), get_str(m, "value"));
    }
  }
  if (const Node* groups = root.find("groups")) {
    if (!groups->is_seq()) bad("'groups' is not a sequence");
    for (const Node& gn : groups->items()) {
      LaneGroup g;
      g.comm = get_str(gn, "comm");
      if (g.comm.empty()) bad("group missing 'comm'");
      g.rng_seed = static_cast<std::uint64_t>(get_int(gn, "rng_seed", 0));
      g.stdio_buffer = static_cast<util::Bytes>(
          get_int(gn, "stdio_buffer", 4 * static_cast<int>(util::kKiB)));
      if (const Node* h5 = gn.find("hdf5")) {
        g.hdf5.chunk_size =
            static_cast<util::Bytes>(get_int(*h5, "chunk_size", 0));
        g.hdf5.use_mpiio = get_bool(*h5, "use_mpiio", true);
        g.hdf5.meta_reads_per_open =
            static_cast<int>(get_int(*h5, "meta_reads_per_open", 4));
        g.hdf5.meta_reads_per_access =
            static_cast<int>(get_int(*h5, "meta_reads_per_access", 2));
      }
      if (const Node* m = gn.find("mpiio")) {
        g.mpiio.cb_buffer = static_cast<util::Bytes>(
            get_int(*m, "cb_buffer",
                    static_cast<std::int64_t>(16 * util::kMiB)));
        g.mpiio.aggregators_per_node =
            static_cast<int>(get_int(*m, "aggregators_per_node", 1));
      }
      if (const Node* c = gn.find("codec")) {
        g.codec.cpu_bps = get_double(*c, "cpu_bps", 600e6);
        g.codec.gpu_bps = get_double(*c, "gpu_bps", 12e9);
        g.codec.use_gpu = get_bool(*c, "use_gpu", false);
        g.codec.ratio = get_double(*c, "ratio", 0.5);
      }
      if (const Node* phases = gn.find("phases")) {
        if (!phases->is_seq()) bad("group 'phases' is not a sequence");
        for (const Node& pn : phases->items()) {
          PhasePattern ph;
          ph.app = get_str(pn, "app");
          if (ph.app.empty()) bad("phase missing 'app'");
          ph.ops = load_ops(pn.find("ops"), "phase '" + ph.app + "'");
          g.phases.push_back(std::move(ph));
        }
      }
      pat.groups.push_back(std::move(g));
    }
  }
  if (const Node* dag = root.find("dag")) {
    if (!dag->is_map()) bad("'dag' is not a map");
    pat.dag.slots = static_cast<int>(get_int(*dag, "slots", 0));
    pat.dag.nodes = static_cast<int>(get_int(*dag, "nodes", 1));
    pat.dag.locality_aware = get_bool(*dag, "locality_aware", false);
    pat.dag.stdio_buffer = static_cast<util::Bytes>(
        get_int(*dag, "stdio_buffer", 4 * static_cast<int>(util::kKiB)));
    if (const Node* stages = dag->find("stages")) {
      if (!stages->is_seq()) bad("dag 'stages' is not a sequence");
      for (const Node& sn : stages->items()) {
        DagStage s;
        s.app = get_str(sn, "app");
        if (s.app.empty()) bad("dag stage missing 'app'");
        s.count = static_cast<int>(get_int(sn, "count", 1));
        s.rng_seed = static_cast<std::uint64_t>(get_int(sn, "rng_seed", 0));
        if (const Node* deps = sn.find("deps")) {
          if (!deps->is_seq()) bad("stage 'deps' is not a sequence");
          for (const Node& dn : deps->items()) {
            DagDep d;
            d.stage = static_cast<int>(get_int(dn, "stage", -1));
            if (d.stage < 0) bad("dag dep missing 'stage'");
            d.index = get_expr(dn, "index");
            s.deps.push_back(std::move(d));
          }
        }
        s.ops = load_ops(sn.find("ops"), "dag stage '" + s.app + "'");
        pat.dag.stages.push_back(std::move(s));
      }
    }
  }
  // DAG stage apps register lazily, by name, so `apps` need not list them.
  Declared d;
  d.apps.insert(pat.apps.begin(), pat.apps.end());
  for (const CommDecl& c : pat.comms) d.comms.insert(c.name);
  for (const EventDecl& e : pat.events) d.events.insert(e.name);
  for (const LaneGroup& g : pat.groups) {
    need(d.comms, g.comm, "group comm");
    for (const PhasePattern& ph : g.phases) {
      need(d.apps, ph.app, "phase app");
      check_names(ph.ops, d);
    }
  }
  for (const DagStage& st : pat.dag.stages) check_names(st.ops, d);
  return pat;
}

}  // namespace wasp::pattern
