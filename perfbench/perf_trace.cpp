// perf_trace: the benchmark's traced re-execution of a pi2_campaign run.
//
//   perf_trace run --spans OUT.json --spec S.json [pi2_campaign sweep flags]
//   perf_trace decode JOURNAL
//   perf_trace provenance
//
// `run` executes the same points, seeds and output path as
// `pi2_campaign --spec S.json ...` (same spec loader, expansion, per-point
// config builders, ParallelRunner, journal and JSON emitters) with a span
// around each of its own calls into a module's public functions. Spans
// (name, start, end, parent, point id, worker thread) stay in memory and are
// written once, together with the exact per-layer counts the engine keeps
// in each RunResult, to OUT.json at the end. After the campaign it reads its
// journal back (the decode path) and, when --telemetry is on, re-runs every
// point without a Recorder so the telemetry cost is a span difference.
//
// `decode` prints one record per journal point (key, FNV-1a digest of the
// payload, engine counters decoded with durable::decode_result) — the
// benchmark's view of an untraced run's results.
//
// `provenance` prints the build type, compiler and google-benchmark library
// build type this binary was built with.
//
// Only the templates the benchmark's workloads use are traced
// (dumbbell_sweep, overload, resilience); others exit 2.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign_templates.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "sweep.hpp"

namespace {

using namespace pi2;
using namespace pi2::bench;

// ---- spans -----------------------------------------------------------------

class Tracer {
 public:
  static constexpr long kNoParent = -1;
  static constexpr long kNoPoint = -1;

  long begin(const char* name, long parent, long point) {
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back({name, now, now, parent, point, thread_index()});
    return static_cast<long>(spans_.size()) - 1;
  }

  void end(long id) {
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  void write(std::FILE* out) const {
    std::fprintf(out, "\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %ld, \"point\": %ld, "
                   "\"thread\": %u}",
                   i == 0 ? "" : ",", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.point,
                   s.thread);
    }
    std::fprintf(out, "\n]");
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;
    long point;
    unsigned thread;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  static unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
  }

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; `id()` is the parent handle for nested spans.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, long parent,
        long point = Tracer::kNoPoint)
      : tracer_(tracer), id_(tracer.begin(name, parent, point)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] long id() const { return id_; }

 private:
  Tracer& tracer_;
  long id_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t payload_digest(const std::string& payload) {
  durable::Fnv1a h;
  h.mix_bytes(payload.data(), payload.size());
  return h.state;
}

std::int64_t faults_injected(const faults::FaultInjector::Counters& c) {
  return c.dropped + c.bleached + c.reordered + c.rate_changes +
         c.rtt_changes;
}

std::int64_t sum_retransmits(const scenario::RunResult& r) {
  std::int64_t n = 0;
  for (const auto& flow : r.flows) n += flow.retransmits;
  return n;
}

std::int64_t sum_timeouts(const scenario::RunResult& r) {
  std::int64_t n = 0;
  for (const auto& flow : r.flows) n += flow.timeouts;
  return n;
}

/// Invariant violations outside any fault window; without a fault schedule
/// there are no windows, so every violation counts.
std::uint64_t violations_outside(const scenario::RunResult& r) {
  return r.resilience.analyzed ? r.resilience.violations_outside
                               : r.violations.size();
}

// ---- provenance ------------------------------------------------------------

/// The library reports its own build type in the JSON reporter's context
/// block; asking it there needs no benchmark run.
std::string gbench_build_type() {
  std::ostringstream text;
  benchmark::JSONReporter reporter;
  reporter.SetOutputStream(&text);
  reporter.SetErrorStream(&text);
  (void)reporter.ReportContext(benchmark::BenchmarkReporter::Context());
  const std::string s = text.str();
  const std::string field = "\"library_build_type\": \"";
  const std::size_t at = s.find(field);
  if (at == std::string::npos) return "unknown";
  const std::size_t from = at + field.size();
  return s.substr(from, s.find('"', from) - from);
}

int run_provenance() {
  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"gbench_build_type\": \"%s\"}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              gbench_build_type().c_str());
  return 0;
}

// ---- decode ----------------------------------------------------------------

int run_decode(const std::string& path) {
  durable::ShardJournalData data;
  const durable::Status status = durable::load_shard_journal(path, data);
  if (!status.ok()) {
    std::fprintf(stderr, "perf_trace: decode: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("{\"interrupted\": %zu, \"points\": [", data.interrupted);
  bool first = true;
  for (const auto& [key, payload] : data.points) {
    scenario::RunResult r;
    const durable::Status decoded = durable::decode_result(payload, r);
    if (!decoded.ok()) {
      std::fprintf(stderr, "perf_trace: decode: point %s: %s\n",
                   hex64(key).c_str(), decoded.message().c_str());
      return 1;
    }
    std::printf("%s\n  {\"key\": \"%s\", \"digest\": \"%s\", "
                "\"events\": %llu, \"clamped_events\": %llu, "
                "\"guard_events\": %llu, \"violations\": %zu, "
                "\"violations_outside\": %llu}",
                first ? "" : ",", hex64(key).c_str(),
                hex64(payload_digest(payload)).c_str(),
                static_cast<unsigned long long>(r.events_executed),
                static_cast<unsigned long long>(r.clamped_events),
                static_cast<unsigned long long>(r.guard_events),
                r.violations.size(),
                static_cast<unsigned long long>(violations_outside(r)));
    first = false;
  }
  std::printf("\n]}\n");
  return 0;
}

// ---- traced campaign -------------------------------------------------------

/// Axis lookups for the traced templates (pi2_campaign's TemplateView).
struct View {
  const campaign::Expansion& x;
  int aqm, cc_mix, rate, rtt, ecn, udp, fault, fluid;
  std::map<std::string, faults::FaultSchedule> schedules;

  explicit View(const campaign::Expansion& e)
      : x(e),
        aqm(e.axis_of("aqm")),
        cc_mix(e.axis_of("cc_mix")),
        rate(e.axis_of("rate_mbps")),
        rtt(e.axis_of("rtt_ms")),
        ecn(e.axis_of("ecn")),
        udp(e.axis_of("udp_mult")),
        fault(e.axis_of("fault_schedule")),
        fluid(e.axis_of("fluid_flows")) {}

  const std::string& text(const campaign::CampaignPoint& p, int axis) const {
    return p.values[static_cast<std::size_t>(axis)].text;
  }
  double num(const campaign::CampaignPoint& p, int axis) const {
    return p.values[static_cast<std::size_t>(axis)].number;
  }
};

/// Resolves every fault_schedule value (pi2_campaign's preflight); returns
/// the first error.
std::string resolve_schedules(View& v) {
  if (v.fault < 0) return "";
  const faults::PresetContext ctx =
      resilience_fault_context(v.x.link_mbps, v.x.rtt_ms, v.x.duration_s);
  for (const auto& value : v.x.axes[static_cast<std::size_t>(v.fault)].values) {
    faults::FaultSchedule schedule;
    const std::string err = faults::resolve_schedule(value.text, ctx, &schedule);
    if (!err.empty()) return "fault_schedule '" + value.text + "': " + err;
    v.schedules.emplace(value.text, std::move(schedule));
  }
  return "";
}

scenario::DumbbellConfig point_config(const View& v, const Options& opts,
                                      const campaign::CampaignPoint& p) {
  using campaign::TemplateId;
  scenario::DumbbellConfig cfg;
  switch (v.x.template_id) {
    case TemplateId::kDumbbellSweep:
      cfg = mix_config(aqm_from_name(v.text(p, v.aqm)),
                       mix_from_name(v.text(p, v.cc_mix)), v.num(p, v.rate),
                       v.num(p, v.rtt), opts);
      cfg.seed = p.seed;
      break;
    case TemplateId::kOverload:
      cfg = overload_config(ecn_from_name(v.text(p, v.ecn)), v.num(p, v.udp),
                            v.x.link_mbps, v.x.rtt_ms, v.x.duration_s,
                            v.x.stats_start_s, p.seed);
      break;
    case TemplateId::kResilience:
      cfg = resilience_config(aqm_from_name(v.text(p, v.aqm)),
                              v.schedules.at(v.text(p, v.fault)),
                              v.num(p, v.fluid), v.x.link_mbps, v.x.rtt_ms,
                              v.x.duration_s, v.x.stats_start_s, p.seed);
      break;
    default:
      break;
  }
  cfg.stop = durable::ShutdownController::flag();
  return cfg;
}

/// pi2_campaign's per-template JSON sinks for the traced templates.
struct Sinks {
  std::unique_ptr<SweepJsonWriter> sweep_json;
  std::unique_ptr<durable::AtomicFile> json;
  bool first = true;

  Sinks(const campaign::Expansion& x, const Options& opts) {
    if (x.template_id == campaign::TemplateId::kDumbbellSweep) {
      sweep_json = std::make_unique<SweepJsonWriter>(
          opts.json_path,
          opts.packet_background > 0 || opts.fluid_background > 0);
      return;
    }
    if (opts.json_path.empty()) return;
    json = std::make_unique<durable::AtomicFile>(opts.json_path);
    if (!json->healthy()) {
      json.reset();
      return;
    }
    json->write("[");
  }

  void add(const View& v, const campaign::CampaignPoint& p,
           const scenario::RunResult& r, const std::string& manifest_path) {
    using campaign::TemplateId;
    switch (v.x.template_id) {
      case TemplateId::kDumbbellSweep:
        if (sweep_json != nullptr) {
          sweep_json->add(SweepPoint{aqm_from_name(v.text(p, v.aqm)),
                                     mix_from_name(v.text(p, v.cc_mix)),
                                     v.num(p, v.rate), v.num(p, v.rtt), r,
                                     p.index, p.seed, manifest_path});
        }
        return;
      case TemplateId::kOverload:
        if (json != nullptr) {
          overload_json_record(*json, first, p.index,
                               v.text(p, v.ecn).c_str(), p.seed,
                               v.x.link_mbps, v.x.rtt_ms, v.num(p, v.udp), r);
        }
        return;
      case TemplateId::kResilience:
        if (json != nullptr) {
          resilience_json_record(*json, first, p.index,
                                 v.text(p, v.aqm).c_str(),
                                 v.text(p, v.fault).c_str(),
                                 v.num(p, v.fluid), p.seed, v.x.link_mbps,
                                 v.x.rtt_ms, r);
        }
        return;
      default:
        return;
    }
  }

  bool commit() {
    bool ok = true;
    if (sweep_json != nullptr) ok = sweep_json->commit();
    if (json != nullptr) {
      json->write("\n]\n");
      ok = json->commit().ok() && ok;
    }
    return ok;
  }
};

/// Exact per-layer counts, summed over the campaign's points.
struct Counts {
  std::map<std::string, std::int64_t> n;

  void add(const scenario::RunResult& r) {
    n["sim.events"] += static_cast<std::int64_t>(r.events_executed);
    n["sim.clamped_events"] += static_cast<std::int64_t>(r.clamped_events);
    n["net.enqueued"] += r.counters.enqueued;
    n["net.forwarded"] += r.counters.forwarded;
    n["net.drops_aqm"] += r.counters.aqm_dropped;
    n["net.drops_tail"] += r.counters.tail_dropped;
    n["net.marks"] += r.counters.marked;
    n["net.band_l_enqueued"] += r.band_l.enqueued;
    n["net.band_c_enqueued"] += r.band_c.enqueued;
    n["aqm.guard_events"] += static_cast<std::int64_t>(r.guard_events);
    n["tcp.retransmits"] += sum_retransmits(r);
    n["tcp.timeouts"] += sum_timeouts(r);
    n["fluid.ticks"] += static_cast<std::int64_t>(r.fluid.ticks);
    n["faults.injected"] += faults_injected(r.fault_counters);
    n["faults.invariant_checks"] +=
        static_cast<std::int64_t>(r.invariant_checks);
    n["faults.violations"] += static_cast<std::int64_t>(r.violations.size());
  }
};

struct PointRecord {
  std::string status = "pending";
  std::uint64_t key = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  int attempts = 0;
  bool baseline_match = true;
};

int run_traced(int argc, char** argv) {
  std::string spans_path;
  std::string spec_path;
  bool use_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spans" && i + 1 < argc) spans_path = argv[++i];
    else if (arg == "--spec" && i + 1 < argc) spec_path = argv[++i];
    else if (arg == "--seed") use_seed = true;
  }
  if (spans_path.empty() || spec_path.empty()) {
    std::fprintf(stderr, "perf_trace run: --spans PATH and --spec PATH are "
                         "required\n");
    return 2;
  }
  const Options opts = parse_options(argc - 1, argv + 1);
  durable::ShutdownController::install();
  Tracer tracer;

  // Set-up: the calls pi2_campaign makes before its first point.
  campaign::CampaignSpec spec;
  campaign::Expansion x;
  std::unique_ptr<View> view;
  {
    const Scope setup{tracer, "campaign.setup", Tracer::kNoParent};
    std::string err;
    {
      const Scope s{tracer, "campaign.load_spec", setup.id()};
      err = campaign::load_spec(spec_path, spec);
    }
    if (err.empty()) {
      const Scope s{tracer, "campaign.validate", setup.id()};
      err = spec.validate();
    }
    if (!err.empty()) {
      std::fprintf(stderr, "perf_trace: %s\n", err.c_str());
      return 17;
    }
    {
      const Scope s{tracer, "campaign.expand", setup.id()};
      campaign::ExpandOptions eo;
      eo.full = opts.full;
      eo.grid_cap = opts.grid_cap;
      eo.min_link_mbps = opts.min_link_mbps;
      eo.duration_s_override = opts.duration_s_override;
      eo.stats_start_s_override = opts.stats_start_s_override;
      eo.use_seed = use_seed;
      eo.seed = opts.seed;
      x = campaign::expand(spec, eo);
    }
    view = std::make_unique<View>(x);
    {
      const Scope s{tracer, "campaign.resolve_schedule", setup.id()};
      err = resolve_schedules(*view);
    }
    if (!err.empty()) {
      std::fprintf(stderr, "perf_trace: %s\n", err.c_str());
      return 17;
    }
  }
  using campaign::TemplateId;
  if (x.template_id != TemplateId::kDumbbellSweep &&
      x.template_id != TemplateId::kOverload &&
      x.template_id != TemplateId::kResilience) {
    std::fprintf(stderr, "perf_trace: template %s is not traced\n",
                 campaign::to_string(x.template_id));
    return 2;
  }
  const View& v = *view;
  const std::size_t n = x.points.size();
  const bool telemetry_on = !opts.telemetry_dir.empty();
  const std::string journal_file =
      opts.journal_path.empty() ? x.name + ".journal" : opts.journal_path;

  std::vector<PointRecord> records(n);
  std::vector<std::atomic<int>> attempts(n);
  Counts counts;
  std::int64_t telemetry_samples = 0;
  const runner::ParallelRunner pool{opts.jobs};

  // The campaign: pi2_campaign's run_campaign() without resume or shards.
  {
    const Scope run{tracer, "campaign.run", Tracer::kNoParent};
    std::unique_ptr<durable::JournalWriter> journal;
    {
      const Scope s{tracer, "durable.journal_open", run.id()};
      journal = std::make_unique<durable::JournalWriter>(
          journal_file, x.digest, /*keep_existing=*/false);
      if (journal->healthy()) {
        durable::ShardInfo shard;
        shard.present = true;
        shard.campaign = x.name;
        shard.digest = x.digest;
        shard.lo = 0;
        shard.hi = n;
        (void)journal->append_shard(shard);
      }
    }
    Sinks out{x, opts};
    telemetry::MetricsRegistry aggregate_registry;

    struct Outcome {
      scenario::RunResult result;
      std::shared_ptr<telemetry::Recorder> recorder;
    };
    {
      const Scope runner_span{tracer, "runner.run", run.id()};
      const long runner_id = runner_span.id();
      (void)pool.run_ordered_guarded<Outcome>(
          n,
          [&](std::size_t j) {
            attempts[j].fetch_add(1);
            const Scope point{tracer, "runner.point", runner_id,
                              static_cast<long>(j)};
            Outcome outcome;
            auto cfg = point_config(v, opts, x.points[j]);
            if (telemetry_on) {
              const Scope s{tracer, "telemetry.recorder_open", point.id(),
                            static_cast<long>(j)};
              outcome.recorder = std::make_shared<telemetry::Recorder>(
                  detail::point_recorder_config(opts, j));
              cfg.recorder = outcome.recorder.get();
            }
            const Scope s{tracer, "scenario.run_dumbbell", point.id(),
                          static_cast<long>(j)};
            outcome.result = scenario::run_dumbbell(cfg);
            return outcome;
          },
          [&](std::size_t j, runner::TaskStatus status, Outcome* outcome) {
            PointRecord& rec = records[j];
            rec.attempts = attempts[j].load();
            rec.status = runner::to_string(status);
            if (status != runner::TaskStatus::kOk || outcome == nullptr) return;
            const long point = static_cast<long>(j);
            const Scope consume{tracer, "runner.consume", runner_id, point};
            std::string payload;
            {
              const Scope s{tracer, "durable.encode_result", consume.id(),
                            point};
              payload = durable::encode_result(outcome->result);
            }
            if (journal->healthy()) {
              const Scope s{tracer, "durable.append_point", consume.id(),
                            point};
              (void)journal->append_point(x.points[j].key, payload);
            }
            rec.key = x.points[j].key;
            rec.digest = payload_digest(payload);
            rec.events = outcome->result.events_executed;
            std::string manifest_path;
            if (outcome->recorder != nullptr) {
              const Scope s{tracer, "telemetry.merge_from", consume.id(),
                            point};
              manifest_path = outcome->recorder->manifest_path();
              telemetry_samples += static_cast<std::int64_t>(
                  outcome->recorder->sampler().samples_taken());
              aggregate_registry.merge_from(outcome->recorder->registry());
              outcome->recorder.reset();
            }
            counts.add(outcome->result);
            const Scope s{tracer, "output.json_record", consume.id(), point};
            out.add(v, x.points[j], outcome->result, manifest_path);
          },
          detail::guard_options(opts));
    }
    {
      const Scope s{tracer, "durable.json_commit", run.id()};
      if (!out.commit()) {
        std::fprintf(stderr, "perf_trace: JSON output not committed\n");
      }
    }
    if (telemetry_on) {
      const Scope s{tracer, "telemetry.aggregate_export", run.id()};
      telemetry::PrometheusExporter aggregate{opts.telemetry_dir +
                                              "/sweep_aggregate.prom"};
      aggregate_registry.freeze_gauges();
      aggregate.finish(aggregate_registry);
    }
  }

  // Read path: the journal back through the strict loader and the codec.
  bool decode_ok = true;
  {
    const Scope pass{tracer, "durable.decode_pass", Tracer::kNoParent};
    durable::ShardJournalData data;
    {
      const Scope s{tracer, "durable.load_journal", pass.id()};
      decode_ok = durable::load_shard_journal(journal_file, data).ok();
    }
    for (std::size_t j = 0; j < data.points.size(); ++j) {
      const Scope s{tracer, "durable.decode_result", pass.id(),
                    static_cast<long>(j)};
      scenario::RunResult r;
      if (!durable::decode_result(data.points[j].second, r).ok()) {
        decode_ok = false;
      }
    }
    decode_ok = decode_ok && data.points.size() == n;
  }

  // Telemetry baseline: the same points without a Recorder. Apart from the
  // sampler's own events, their results must not change, and their span
  // sum is the no-telemetry cost.
  if (telemetry_on) {
    const Scope pass{tracer, "telemetry.baseline_pass", Tracer::kNoParent};
    (void)pool.run_ordered_guarded<scenario::RunResult>(
        n,
        [&](std::size_t j) {
          const Scope point{tracer, "baseline.point", pass.id(),
                            static_cast<long>(j)};
          const auto cfg = point_config(v, opts, x.points[j]);
          const Scope s{tracer, "scenario.run_dumbbell", point.id(),
                        static_cast<long>(j)};
          return scenario::run_dumbbell(cfg);
        },
        [&](std::size_t j, runner::TaskStatus status,
            scenario::RunResult* result) {
          PointRecord& rec = records[j];
          rec.baseline_match = status == runner::TaskStatus::kOk &&
                               result != nullptr &&
                               result->events_executed <= rec.events;
          if (!rec.baseline_match) return;
          result->events_executed = rec.events;
          rec.baseline_match =
              payload_digest(durable::encode_result(*result)) == rec.digest;
        },
        detail::guard_options(opts));
  }

  bool all_ok = decode_ok;
  for (const PointRecord& rec : records) {
    all_ok = all_ok && rec.status == "ok" && rec.baseline_match;
  }

  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_trace: cannot write %s: %s\n",
                 spans_path.c_str(), std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\"jobs\": %u, \"template\": \"%s\", \"decode_ok\": %s,\n",
               pool.jobs(), campaign::to_string(x.template_id),
               decode_ok ? "true" : "false");
  std::fprintf(f, "\"counts\": {\"telemetry.samples\": %lld",
               static_cast<long long>(telemetry_samples));
  for (const auto& [name, value] : counts.n) {
    std::fprintf(f, ", \"%s\": %lld", name.c_str(),
                 static_cast<long long>(value));
  }
  std::fprintf(f, "},\n\"points\": [");
  for (std::size_t j = 0; j < n; ++j) {
    const PointRecord& rec = records[j];
    std::fprintf(f,
                 "%s\n  {\"index\": %zu, \"status\": \"%s\", \"key\": \"%s\", "
                 "\"digest\": \"%s\", \"attempts\": %d, "
                 "\"baseline_match\": %s}",
                 j == 0 ? "" : ",", j, rec.status.c_str(),
                 hex64(rec.key).c_str(), hex64(rec.digest).c_str(),
                 rec.attempts, rec.baseline_match ? "true" : "false");
  }
  std::fprintf(f, "\n],\n");
  tracer.write(f);
  std::fprintf(f, "}\n");
  const bool written = std::fclose(f) == 0;
  return all_ok && written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "run") return run_traced(argc, argv);
  if (mode == "decode" && argc == 3) return run_decode(argv[2]);
  if (mode == "provenance") return run_provenance();
  std::fprintf(stderr,
               "usage: perf_trace run --spans OUT.json --spec S.json "
               "[pi2_campaign flags]\n"
               "       perf_trace decode JOURNAL\n"
               "       perf_trace provenance\n");
  return 2;
}
