#include "workloads.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic_engine.h"
#include "crypto_probe.h"
#include "pipeline.h"

namespace xbench {

using xdeal::EpochReport;
using xdeal::ServiceReport;
using xdeal::TrafficOptions;
using xdeal::TrafficReport;
using xdeal::TrafficService;

namespace {

// --- workload definitions ----------------------------------------------------

enum class Kind { kBatch, kService };

/// One workload: what the end-to-end run times, and the deal streams the
/// traced run composes (`composed`) and runs as a service (`service`).
struct Workload {
  Kind kind = Kind::kBatch;
  TrafficOptions end_to_end;
  TrafficOptions composed;
  TrafficOptions service;
  size_t service_epochs = 0;
  /// Deal streams the end-to-end run takes turns on (see StreamOptions).
  size_t streams = 1;
};

constexpr size_t kBatchDeals = 1000;
constexpr size_t kServiceEpochs = 10;
constexpr size_t kServiceDealsPerEpoch = 100;
// Set-up is sampled before every repetition, not all at the start, so
// that its median, like the rate, spans the whole run and not one moment
// of the host. TrafficService::Create takes about a millisecond, so it is
// sampled many times per restore cycle; the batch set-up (about 0.4 s)
// once per repetition.
constexpr size_t kServiceSetupsPerCycle = 30;
// Timed repetitions of the workload in one run, at least, and at least one
// per stream. The rate comes from each stream's median time, which one
// disturbed repetition moves less than a single time would.
constexpr size_t kMinReps = 3;
// Deal streams per end-to-end run. One seed's 1000 deals run up to about
// 5% faster or slower than another's, so a run takes turns on several
// streams and the rate is their pooled one. The service runs fewer: each
// of its streams also pays for an uninterrupted reference run.
constexpr size_t kBatchStreams = 4;
constexpr size_t kServiceStreams = 2;
// Stream k of seed s runs on base seed s + k * kStreamSeedStride, so
// stream 0 is the seed itself and no two seeds below 2^32 share a stream.
constexpr uint64_t kStreamSeedStride = uint64_t{1} << 32;

// Broadcast delivery makes default-stagger's traced run cost O(D^2) events,
// each paying the choose-point's O(ties^2) scan, so it is traced at a
// smaller D; its per-deal layer numbers therefore understate the D=1000
// delivery fan-out.
constexpr size_t kTracedStaggerDeals = 250;
// Batch workloads have no service path; their service.* metrics come from
// running the same deal stream as a short service (indexed delivery and no
// admission controller, which service mode requires).
constexpr size_t kProbeServiceEpochs = 4;
constexpr size_t kProbeServiceDealsPerEpoch = 50;

xdeal::AdmissionOptions StockController() {
  xdeal::AdmissionOptions admission;
  admission.enabled = true;
  admission.max_chain_occupancy = 24;
  admission.retry_delay = 20;
  admission.max_retries = 3;
  return admission;
}

TrafficOptions CbcSharded(uint64_t seed, size_t deals) {
  TrafficOptions o;
  o.base_seed = seed;
  o.num_deals = deals;
  o.num_chains = std::max<size_t>(8, deals / 8);
  o.cbc_shards = 8;
  o.arrival = xdeal::ArrivalProcess::kPoisson;
  o.mean_interarrival = 20.0;
  o.admission = StockController();
  o.indexed_observation = true;
  return o;
}

TrafficOptions DefaultStagger(uint64_t seed, size_t deals) {
  TrafficOptions o;
  o.base_seed = seed;
  o.num_deals = deals;
  return o;
}

/// bench_traffic's epoch-service workload.
TrafficOptions ServiceRestore(uint64_t seed, size_t deals_per_epoch) {
  TrafficOptions o;
  o.base_seed = seed;
  o.num_chains = 4;
  o.deals_per_epoch = deals_per_epoch;
  o.indexed_observation = true;
  o.arrival = xdeal::ArrivalProcess::kPoisson;
  o.mean_interarrival = 20.0;
  o.watchtower_every = 5;
  o.tower_crash_every = 3;
  o.tower_crash_after = 15;
  o.tower_recover_after = 300;
  o.brokers.num_brokers = 2;
  o.brokers.broker_every = 4;
  o.cbc_shards = 2;
  o.cbc_xshard_every = 2;
  return o;
}

/// `o` as a service: per-epoch deal count set, indexed delivery, no
/// admission controller.
TrafficOptions AsService(TrafficOptions o, size_t deals_per_epoch) {
  o.deals_per_epoch = deals_per_epoch;
  o.indexed_observation = true;
  o.admission = xdeal::AdmissionOptions{};
  return o;
}

/// `o` without the parts the composed pipeline does not build (brokers,
/// watchtowers and their crashes, cross-shard placement), as a batch of
/// `deals` deals.
TrafficOptions AsComposable(TrafficOptions o, size_t deals) {
  TrafficOptions plain;
  plain.base_seed = o.base_seed;
  plain.num_deals = deals;
  plain.num_chains = o.num_chains;
  plain.cbc_shards = o.cbc_shards;
  plain.arrival = o.arrival;
  plain.mean_interarrival = o.mean_interarrival;
  plain.admission = o.admission;
  plain.indexed_observation = o.indexed_observation;
  return plain;
}

/// `o` on deal stream `k`: the same options on another base seed.
TrafficOptions StreamOptions(TrafficOptions o, size_t k) {
  o.base_seed += k * kStreamSeedStride;
  return o;
}

/// Deals per second pooled over streams: every stream's committed deals
/// over the sum of every stream's median time. Each stream counts once
/// however many times it ran.
double PooledRate(const std::vector<size_t>& committed,
                  const std::vector<std::vector<double>>& seconds) {
  double deals = 0, total_s = 0;
  for (size_t k = 0; k < committed.size(); ++k) {
    deals += static_cast<double>(committed[k]);
    total_s += Median(seconds[k]);
  }
  return deals / total_s;
}

/// Folds the streams' fingerprints into one, in stream order.
uint64_t FoldFingerprints(const std::vector<uint64_t>& fps) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t fp : fps) h = (h ^ fp) * 0x100000001b3ULL;
  return h;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  if (name == "cbc-sharded") {
    w->kind = Kind::kBatch;
    w->end_to_end = CbcSharded(seed, kBatchDeals);
    w->composed = w->end_to_end;
    w->service = AsService(CbcSharded(seed, 0), kProbeServiceDealsPerEpoch);
    w->service_epochs = kProbeServiceEpochs;
    w->streams = kBatchStreams;
    return true;
  }
  if (name == "default-stagger") {
    w->kind = Kind::kBatch;
    w->end_to_end = DefaultStagger(seed, kBatchDeals);
    w->composed = DefaultStagger(seed, kTracedStaggerDeals);
    w->service = AsService(DefaultStagger(seed, 0), kProbeServiceDealsPerEpoch);
    w->service_epochs = kProbeServiceEpochs;
    w->streams = kBatchStreams;
    return true;
  }
  if (name == "service-restore") {
    w->kind = Kind::kService;
    w->end_to_end = ServiceRestore(seed, kServiceDealsPerEpoch);
    w->service = w->end_to_end;
    w->service_epochs = kServiceEpochs;
    w->composed =
        AsComposable(w->end_to_end, kServiceEpochs * kServiceDealsPerEpoch);
    w->streams = kServiceStreams;
    return true;
  }
  return false;
}

// --- batch end-to-end ----------------------------------------------------------

void CheckTrafficReport(const TrafficReport& r, Checks* checks) {
  checks->Expect(r.violations.empty(), "traffic: zero Property 1-3 violations");
  checks->Expect(r.double_spends.empty(), "traffic: zero double-spends");
  checks->Expect(r.broker_portfolio_violations == 0,
                 "traffic: zero broker portfolio violations");
  checks->Expect(r.untagged_gas == 0, "traffic: untagged_gas == 0");
  checks->Expect(r.committed + r.aborted + r.mixed + r.shed <= r.num_deals,
                 "traffic: outcome counts partition the deals");
}

/// One untraced composed run of `options`, checked to reproduce `engine`,
/// RunTraffic's report on the same options with its per-deal records: the
/// per-deal fold, the event count, the outcome counts and the gas.
PipelineResult RunComposedChecked(const TrafficOptions& options,
                                  const TrafficReport& engine, Checks* checks) {
  ComposedPipeline p(options, nullptr);
  p.Run();
  PipelineResult plain = p.Collect();
  checks->Expect(plain.violations == 0, "composed: zero Property 1-3 violations");
  checks->Expect(plain.untagged_gas == 0, "composed: untagged_gas == 0");
  checks->Expect(plain.fingerprint == FoldReport(engine),
                 "composed: per-deal outcomes, gas and settle times equal "
                 "RunTraffic's");
  checks->Expect(plain.events == engine.events_executed,
                 "composed: event count equals RunTraffic's");
  checks->Expect(plain.committed == engine.committed &&
                     plain.shed == engine.shed &&
                     plain.total_gas == engine.total_gas,
                 "composed: outcome counts and gas equal RunTraffic's");
  return plain;
}

/// Wall time of the composed pipeline's set-up phase (everything before
/// the scheduler runs). RunTraffic does not expose its own phases;
/// RunBatchEndToEnd checks that this pipeline reproduces RunTraffic's run
/// of the same options.
double SetupSeconds(const TrafficOptions& options) {
  const Clock::time_point start = Clock::now();
  ComposedPipeline pipeline(options, nullptr);
  return SecondsSince(start);
}

RunCounts RunBatchEndToEnd(const Workload& w, const RunArgs& args,
                           Metrics* metrics, Checks* checks) {
  // The streams take turns until the time is up, each at least once; the
  // first report of each stream is the one later repetitions must repeat.
  RunCounts counts;
  std::vector<double> setups;
  std::vector<std::vector<double>> walls(w.streams);
  std::vector<TrafficReport> firsts(w.streams);
  size_t reps = 0;
  double last_wall = 0;
  const Clock::time_point start = Clock::now();
  do {
    const size_t k = reps % w.streams;
    const TrafficOptions options = StreamOptions(w.end_to_end, k);
    setups.push_back(SetupSeconds(w.end_to_end));
    const Clock::time_point t0 = Clock::now();
    TrafficReport r = xdeal::RunTraffic(options);
    last_wall = SecondsSince(t0);
    walls[k].push_back(last_wall);
    ++reps;
    std::printf("info rep %zu stream %zu wall_s %.4f deals_per_sec %.4f\n",
                reps, k, last_wall,
                static_cast<double>(r.committed) / last_wall);
    CheckTrafficReport(r, checks);
    counts.attempted += r.num_deals;
    counts.failed += r.num_deals - r.committed;
    if (reps <= w.streams) {
      // setup_s times the composed pipeline's set-up, so the pipeline must
      // still reproduce the engine; this untimed run checks it.
      if (k == 0) RunComposedChecked(options, r, checks);
      firsts[k] = std::move(r);
    } else {
      checks->Expect(r.fingerprint == firsts[k].fingerprint,
                     "traffic: the same stream yields the same fingerprint");
    }
  } while (reps < std::max(kMinReps, w.streams) ||
           SecondsSince(start) + last_wall <= args.seconds);

  std::vector<size_t> committed;
  std::vector<uint64_t> fps;
  std::vector<double> p50, p99, goodput;
  double gas = 0, deals = 0;
  for (const TrafficReport& r : firsts) {
    committed.push_back(r.committed);
    fps.push_back(r.fingerprint);
    p50.push_back(static_cast<double>(r.latency_p50));
    p99.push_back(static_cast<double>(r.latency_p99));
    goodput.push_back(r.deals_per_ktick);
    gas += static_cast<double>(r.total_gas);
    deals += static_cast<double>(r.num_deals);
  }
  std::printf("info runs %zu streams %zu fingerprint %016" PRIx64
              " committed %zu/%zu events %" PRIu64 "\n",
              reps, w.streams, FoldFingerprints(fps), firsts[0].committed,
              firsts[0].num_deals, firsts[0].events_executed);
  std::printf("info failed_frac %.6f\n",
              static_cast<double>(counts.failed) /
                  static_cast<double>(counts.attempted));
  metrics->Add("deals_per_sec", PooledRate(committed, walls), "1/s");
  metrics->Add("setup_s", Median(setups), "s");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics->Add("latency_p50_ticks", Median(p50), "ticks");
  metrics->Add("latency_p99_ticks", Median(p99), "ticks");
  metrics->Add("gas_per_deal", gas / deals, "gas");
  metrics->Add("goodput_per_ktick", Median(goodput), "1/ktick");
  return counts;
}

// --- service cycles ------------------------------------------------------------

/// One service run of `epochs` epochs; with `restore`, every boundary but
/// the last checkpoints, destroys the service and restores it.
struct ServiceCycle {
  std::vector<double> epoch_s;
  std::vector<double> checkpoint_s;
  std::vector<double> restore_s;
  std::vector<double> snapshot_bytes;
  std::vector<EpochReport> epochs;
  ServiceReport report;
  double run_epoch_s = 0;
  size_t stream = 0;
};

bool RunServiceCycle(const TrafficOptions& options, size_t epochs, bool restore,
                     Checks* checks, ServiceCycle* out) {
  auto created = TrafficService::Create(options);
  checks->Expect(created.ok(), "service: Create succeeds");
  if (!created.ok()) return false;
  std::unique_ptr<TrafficService> service = std::move(created.value());
  for (size_t e = 0; e < epochs; ++e) {
    const Clock::time_point t0 = Clock::now();
    EpochReport epoch = service->RunEpoch();
    out->epoch_s.push_back(SecondsSince(t0));
    out->run_epoch_s += out->epoch_s.back();
    checks->Expect(epoch.violations == 0, "service: zero violations per epoch");
    checks->Expect(epoch.double_spends == 0,
                   "service: zero double-spends per epoch");
    checks->Expect(epoch.untagged_gas == 0, "service: untagged_gas == 0");
    out->epochs.push_back(epoch);
    if (!restore || e + 1 == epochs) continue;

    const Clock::time_point t1 = Clock::now();
    xdeal::Result<xdeal::Bytes> snapshot = service->Checkpoint();
    out->checkpoint_s.push_back(SecondsSince(t1));
    checks->Expect(snapshot.ok(), "service: Checkpoint succeeds");
    if (!snapshot.ok()) return false;
    out->snapshot_bytes.push_back(static_cast<double>(snapshot.value().size()));
    service.reset();  // the old process dies here
    const Clock::time_point t2 = Clock::now();
    auto restored = TrafficService::FromSnapshot(options, snapshot.value());
    out->restore_s.push_back(SecondsSince(t2));
    checks->Expect(restored.ok(), "service: every FromSnapshot succeeds");
    if (!restored.ok()) return false;
    service = std::move(restored.value());
  }
  out->report = service->Finish();
  const ServiceReport& r = out->report;
  checks->Expect(r.deals == epochs * options.deals_per_epoch,
                 "service: every epoch ran its deals");
  checks->Expect(r.violations.empty(), "service: zero Property 1-3 violations");
  checks->Expect(r.double_spends == 0, "service: zero double-spends");
  checks->Expect(r.broker_portfolio_violations == 0,
                 "service: zero broker portfolio violations");
  checks->Expect(r.untagged_gas == 0, "service: untagged_gas == 0");
  return true;
}


/// Restore-side metrics of a set of restore cycles, medians across cycles.
struct RecoveryStats {
  double recovery_ms_p50 = 0;
  double recovery_ms_final = 0;
  double run_epoch_ms_p50 = 0;
  double checkpoint_ms_p50 = 0;
  double snapshot_kb_final = 0;
  double restore_ms_per_snapshot_mb = 0;
};

RecoveryStats SummarizeRecovery(const std::vector<ServiceCycle>& cycles) {
  std::vector<double> p50, last, epoch_ms, checkpoint_ms, kb, per_mb;
  for (const ServiceCycle& c : cycles) {
    if (c.restore_s.empty()) continue;
    p50.push_back(1e3 * Median(c.restore_s));
    last.push_back(1e3 * c.restore_s.back());
    epoch_ms.push_back(1e3 * Median(c.epoch_s));
    checkpoint_ms.push_back(1e3 * Median(c.checkpoint_s));
    kb.push_back(c.snapshot_bytes.back() / 1024.0);
    double restore_ms = 0, snapshot_mb = 0;
    for (size_t i = 0; i < c.restore_s.size(); ++i) {
      restore_ms += 1e3 * c.restore_s[i];
      snapshot_mb += c.snapshot_bytes[i] / (1024.0 * 1024.0);
    }
    per_mb.push_back(restore_ms / snapshot_mb);
  }
  RecoveryStats s;
  s.recovery_ms_p50 = Median(p50);
  s.recovery_ms_final = Median(last);
  s.run_epoch_ms_p50 = Median(epoch_ms);
  s.checkpoint_ms_p50 = Median(checkpoint_ms);
  s.snapshot_kb_final = Median(kb);
  s.restore_ms_per_snapshot_mb = Median(per_mb);
  return s;
}

/// Restore cycles on `streams` in turn until `seconds` have passed (at
/// least `min_cycles`, and one per stream). The first time a stream comes
/// up it also runs straight through as its reference, which every restore
/// cycle of that stream must end on. `before_cycle`, when set, runs before
/// each cycle, inside the time budget.
std::vector<ServiceCycle> RunRestoreCycles(
    const std::vector<TrafficOptions>& streams, size_t epochs, double seconds,
    size_t min_cycles, Checks* checks, std::vector<ServiceCycle>* references,
    const std::function<void()>& before_cycle = nullptr) {
  const Clock::time_point start = Clock::now();
  std::vector<ServiceCycle> cycles;
  references->assign(streams.size(), ServiceCycle{});
  const size_t min_total = std::max(min_cycles, streams.size());
  double last = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    if (before_cycle) before_cycle();
    const size_t k = cycles.size() % streams.size();
    ServiceCycle& reference = (*references)[k];
    if (cycles.size() < streams.size() &&
        !RunServiceCycle(streams[k], epochs, /*restore=*/false, checks,
                         &reference)) {
      break;
    }
    ServiceCycle cycle;
    cycle.stream = k;
    if (!RunServiceCycle(streams[k], epochs, /*restore=*/true, checks,
                         &cycle)) {
      break;
    }
    checks->Expect(
        cycle.report.final_fingerprint == reference.report.final_fingerprint,
        "service: restored runs end on the uninterrupted run's fingerprint");
    cycles.push_back(std::move(cycle));
    last = SecondsSince(t0);
  } while (cycles.size() < min_total ||
           SecondsSince(start) + last <= seconds);
  return cycles;
}

RunCounts RunServiceEndToEnd(const Workload& w, const RunArgs& args,
                             Metrics* metrics, Checks* checks) {
  std::vector<double> setups;
  auto sample_setups = [&] {
    for (size_t i = 0; i < kServiceSetupsPerCycle; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto created = TrafficService::Create(w.end_to_end);
      setups.push_back(SecondsSince(t0));
      checks->Expect(created.ok(), "service: Create succeeds");
    }
  };

  std::vector<TrafficOptions> streams;
  for (size_t k = 0; k < w.streams; ++k) {
    streams.push_back(StreamOptions(w.end_to_end, k));
  }
  std::vector<ServiceCycle> references;
  std::vector<ServiceCycle> cycles =
      RunRestoreCycles(streams, w.service_epochs, args.seconds, kMinReps,
                       checks, &references, sample_setups);
  RunCounts counts;
  if (cycles.size() < w.streams) return counts;

  std::vector<std::vector<double>> run_epoch_s(w.streams);
  for (size_t i = 0; i < cycles.size(); ++i) {
    const ServiceCycle& c = cycles[i];
    run_epoch_s[c.stream].push_back(c.run_epoch_s);
    std::printf("info cycle %zu stream %zu run_epoch_s %.4f deals_per_sec "
                "%.4f\n",
                i + 1, c.stream, c.run_epoch_s,
                static_cast<double>(c.report.committed) / c.run_epoch_s);
    counts.attempted += c.report.deals;
    counts.failed += c.report.deals - c.report.committed;
  }
  // Cycle k < streams is stream k's first; the metrics below repeat
  // exactly in every cycle of a stream.
  std::vector<size_t> committed;
  std::vector<uint64_t> fps;
  std::vector<double> p50, p99;
  double gas = 0, deals = 0, makespan = 0, done = 0;
  for (size_t k = 0; k < w.streams; ++k) {
    const ServiceCycle& c = cycles[k];
    const ServiceReport& r = c.report;
    committed.push_back(r.committed);
    fps.push_back(r.final_fingerprint);
    for (const EpochReport& e : c.epochs) {
      p50.push_back(static_cast<double>(e.latency_p50));
      p99.push_back(static_cast<double>(e.latency_p99));
    }
    gas += static_cast<double>(r.total_gas);
    deals += static_cast<double>(r.deals);
    done += static_cast<double>(r.committed);
    makespan += static_cast<double>(r.makespan);
  }
  RecoveryStats recovery = SummarizeRecovery(cycles);
  std::printf("info runs %zu streams %zu fingerprint %016" PRIx64
              " committed %zu/%zu\n",
              cycles.size(), w.streams, FoldFingerprints(fps),
              cycles[0].report.committed, cycles[0].report.deals);
  std::printf("info failed_frac %.6f\n",
              static_cast<double>(counts.failed) /
                  static_cast<double>(counts.attempted));
  std::printf("info recovery_ms_p50 %.3f recovery_ms_final %.3f\n",
              recovery.recovery_ms_p50, recovery.recovery_ms_final);

  metrics->Add("deals_per_sec", PooledRate(committed, run_epoch_s), "1/s");
  metrics->Add("setup_s", Median(setups), "s");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics->Add("latency_p50_ticks", Median(p50), "ticks");
  metrics->Add("latency_p99_ticks", Median(p99), "ticks");
  metrics->Add("gas_per_deal", gas / deals, "gas");
  metrics->Add("goodput_per_ktick", 1000.0 * done / makespan, "1/ktick");
  return counts;
}

// --- traced run ------------------------------------------------------------------

/// Every per-layer metric, in output order. Every traced run fills every
/// one of them.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"crypto.mulmod_ns", "ns"},
      {"crypto.powmod_us", "us"},
      {"crypto.keygen_us", "us"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"crypto.batch_verify5_us", "us"},
      {"crypto.sha256_64B_ns", "ns"},
      {"sim.events_per_deal", "count"},
      {"sim.events.tx_per_deal", "count"},
      {"sim.events.block_per_deal", "count"},
      {"sim.events.observation_per_deal", "count"},
      {"sim.events.timer_per_deal", "count"},
      {"sim.events.internal_per_deal", "count"},
      {"sim.max_backlog", "count"},
      {"sim.dispatch_ns_per_event", "ns"},
      {"chain.block_self_ms_per_deal", "ms"},
      {"chain.tx_arrival_self_us_per_deal", "us"},
      {"chain.blocks_per_deal", "count"},
      {"chain.receipts_per_deal", "count"},
      {"chain.failed_tx_ratio", "ratio"},
      {"contracts.gas.escrow_per_deal", "gas"},
      {"contracts.gas.transfer_per_deal", "gas"},
      {"contracts.gas.vote_per_deal", "gas"},
      {"contracts.gas.decide_per_deal", "gas"},
      {"contracts.gas.refund_per_deal", "gas"},
      {"contracts.sig_verifies_per_deal", "count"},
      {"core.parties.observation_self_ms_per_deal", "ms"},
      {"core.parties.timer_self_ms_per_deal", "ms"},
      {"core.deploy_ms_per_deal", "ms"},
      {"core.check_ms_per_deal", "ms"},
      {"core.admission.delayed_deals", "count"},
      {"core.admission.wait_ticks_max", "ticks"},
      {"service.run_epoch_ms_p50", "ms"},
      {"service.checkpoint_ms_p50", "ms"},
      {"service.snapshot_kb_final", "KB"},
      {"service.restore_ms_per_snapshot_mb", "ms/MB"},
      {"service.recovery_ms_p50", "ms"},
      {"service.recovery_ms_final", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

using LayerValues = std::map<std::string, double>;

// Share of the traced run's time budget spent on traced composed runs; the
// rest goes to the service restore cycles.
constexpr double kComposedShare = 0.6;

/// Per-layer numbers of one traced composed run.
struct TracedRun {
  PipelineResult result;
  std::array<uint64_t, kNumEventKinds> count{};
  std::array<int64_t, kNumEventKinds> self_ns{};
  size_t max_backlog = 0;
};

double Wall(const PipelineResult& r) { return r.setup_s + r.run_s + r.collect_s; }

/// Writes the spans of the last traced run as Chrome trace-event JSON.
void WriteTrace(const std::string& path, const EventTracer& tracer) {
  static const char* const kLaneNames[] = {
      "event.internal", "event.tx_arrival", "event.block", "event.observation",
      "event.timer",    "pipeline.run",     "core.deploy", "core.check"};
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("info cannot write trace %s\n", path.c_str());
    return;
  }
  const std::vector<Span>& spans = tracer.spans();
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u}}%s\n",
                 kLaneNames[s.lane], s.lane,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("info trace %zu spans -> %s\n", spans.size(), path.c_str());
}

void ProbeCryptoLayer(LayerValues* v, Checks* checks) {
  CryptoTimes crypto = ProbeCrypto(0.25, checks);
  (*v)["crypto.mulmod_ns"] = crypto.mulmod_ns;
  (*v)["crypto.powmod_us"] = crypto.powmod_us;
  (*v)["crypto.keygen_us"] = crypto.keygen_us;
  (*v)["crypto.sign_us"] = crypto.sign_us;
  (*v)["crypto.verify_us"] = crypto.verify_us;
  (*v)["crypto.batch_verify5_us"] = crypto.batch_verify5_us;
  (*v)["crypto.sha256_64B_ns"] = crypto.sha256_64B_ns;
}

/// The sim, chain, contracts and core split of one deal stream: checks the
/// composed pipeline against RunTraffic and tracing against no tracing,
/// then traces runs until `deadline_s` seconds after `start` (at least one).
void TraceComposedLayers(const TrafficOptions& composed,
                         Clock::time_point start, double deadline_s,
                         const std::string& trace_out, LayerValues* v,
                         Checks* checks, RunCounts* counts) {
  // The engine's own run of the same deal stream is the reference the
  // composed pipeline must reproduce exactly.
  TrafficReport engine = xdeal::RunTraffic(composed);
  CheckTrafficReport(engine, checks);

  // Untraced composed run: no policy, no observer.
  const PipelineResult plain = RunComposedChecked(composed, engine, checks);

  // Label-counting run: the choose-point installed, no clocks read.
  std::array<uint64_t, kNumEventKinds> untimed_count{};
  {
    EventTracer counter(/*timed=*/false);
    ComposedPipeline p(composed, &counter);
    p.Run();
    PipelineResult r = p.Collect();
    checks->Expect(r.fingerprint == plain.fingerprint && r.events == plain.events,
                   "trace: the choose-point does not perturb the run");
    untimed_count = counter.count();
  }

  // Traced runs; the last one's spans are written out.
  std::vector<TracedRun> traced;
  std::unique_ptr<EventTracer> last_tracer;
  do {
    auto tracer = std::make_unique<EventTracer>(/*timed=*/true);
    ComposedPipeline p(composed, tracer.get());
    p.Run();
    TracedRun t;
    t.result = p.Collect();
    t.count = tracer->count();
    t.self_ns = tracer->self_ns();
    t.max_backlog = tracer->max_backlog();
    const PipelineResult& r = t.result;
    checks->Expect(r.fingerprint == plain.fingerprint &&
                       r.committed == plain.committed &&
                       r.aborted == plain.aborted && r.shed == plain.shed &&
                       r.total_gas == plain.total_gas &&
                       r.events == plain.events,
                   "trace: traced and untraced runs give identical outcomes, "
                   "events and gas");
    checks->Expect(t.count == untimed_count,
                   "trace: event counts per kind match the untimed run");
    checks->Expect(t.max_backlog == engine.max_backlog,
                   "trace: peak backlog equals RunTraffic's");
    counts->attempted += r.deals;
    counts->failed += r.deals - r.committed;
    traced.push_back(std::move(t));
    last_tracer = std::move(tracer);
  } while (SecondsSince(start) + Wall(traced.back().result) <= deadline_s);
  if (!trace_out.empty()) WriteTrace(trace_out, *last_tracer);

  // Times are medians over the traced runs; counts are the same in each.
  const double deals = static_cast<double>(composed.num_deals);
  auto median_of = [&traced](auto f) {
    std::vector<double> xs;
    for (const TracedRun& t : traced) xs.push_back(f(t));
    return Median(xs);
  };
  auto self_ms_per_deal = [&](xdeal::EventKind k) {
    return median_of([k, deals](const TracedRun& t) {
      return 1e-6 * static_cast<double>(t.self_ns[static_cast<size_t>(k)]) /
             deals;
    });
  };
  const TracedRun& t0 = traced.front();
  const PipelineResult& r0 = t0.result;
  auto per_deal = [deals](double x) { return x / deals; };
  auto kind_per_deal = [&t0, deals](xdeal::EventKind k) {
    return static_cast<double>(t0.count[static_cast<size_t>(k)]) / deals;
  };
  LayerValues& m = *v;
  m["sim.events_per_deal"] = per_deal(static_cast<double>(r0.events));
  m["sim.events.tx_per_deal"] = kind_per_deal(xdeal::EventKind::kTxArrival);
  m["sim.events.block_per_deal"] =
      kind_per_deal(xdeal::EventKind::kBlockProduction);
  m["sim.events.observation_per_deal"] =
      kind_per_deal(xdeal::EventKind::kObservation);
  m["sim.events.timer_per_deal"] = kind_per_deal(xdeal::EventKind::kTimer);
  m["sim.events.internal_per_deal"] = kind_per_deal(xdeal::EventKind::kInternal);
  m["sim.max_backlog"] = static_cast<double>(t0.max_backlog);
  // Event-loop time outside the callbacks, within the traced run: it
  // includes the choose-point's own cost (popping and re-queueing every
  // same-tick tie), which an untraced run does not pay.
  m["sim.dispatch_ns_per_event"] = median_of([](const TracedRun& t) {
    int64_t self = 0;
    for (int64_t ns : t.self_ns) self += ns;
    return (1e9 * t.result.run_s - static_cast<double>(self)) /
           static_cast<double>(t.result.events);
  });
  m["chain.block_self_ms_per_deal"] =
      self_ms_per_deal(xdeal::EventKind::kBlockProduction);
  m["chain.tx_arrival_self_us_per_deal"] =
      1e3 * self_ms_per_deal(xdeal::EventKind::kTxArrival);
  m["chain.blocks_per_deal"] = per_deal(static_cast<double>(r0.blocks));
  m["chain.receipts_per_deal"] = per_deal(static_cast<double>(r0.receipts));
  m["chain.failed_tx_ratio"] = static_cast<double>(r0.failed_receipts) /
                               static_cast<double>(r0.receipts);
  m["contracts.gas.escrow_per_deal"] = per_deal(static_cast<double>(r0.gas_escrow));
  m["contracts.gas.transfer_per_deal"] =
      per_deal(static_cast<double>(r0.gas_transfer));
  m["contracts.gas.vote_per_deal"] = per_deal(static_cast<double>(r0.gas_vote));
  m["contracts.gas.decide_per_deal"] = per_deal(static_cast<double>(r0.gas_decide));
  m["contracts.gas.refund_per_deal"] = per_deal(static_cast<double>(r0.gas_refund));
  m["contracts.sig_verifies_per_deal"] =
      per_deal(static_cast<double>(r0.sig_verifies));
  m["core.parties.observation_self_ms_per_deal"] =
      self_ms_per_deal(xdeal::EventKind::kObservation);
  m["core.parties.timer_self_ms_per_deal"] =
      self_ms_per_deal(xdeal::EventKind::kTimer);
  m["core.deploy_ms_per_deal"] = median_of(
      [deals](const TracedRun& t) { return 1e3 * t.result.deploy_s / deals; });
  m["core.check_ms_per_deal"] = median_of(
      [deals](const TracedRun& t) { return 1e3 * t.result.check_s / deals; });
  m["core.admission.delayed_deals"] = static_cast<double>(r0.delayed_deals);
  m["core.admission.wait_ticks_max"] = static_cast<double>(r0.max_admission_wait);
  m["trace.overhead_ratio"] =
      median_of([](const TracedRun& t) { return Wall(t.result); }) / Wall(plain);
  // The same seed must give this fingerprint in every traced run; the
  // steadiness mode compares it across processes.
  std::printf("info runs %zu fingerprint %016" PRIx64 " composed deals %zu\n",
              traced.size(), plain.fingerprint, composed.num_deals);
}

/// The service split: restore cycles of the workload's service stream until
/// `seconds` have passed (at least one).
void ProbeServiceLayer(const Workload& w, double seconds, LayerValues* v,
                       Checks* checks, RunCounts* counts) {
  std::vector<ServiceCycle> references;
  std::vector<ServiceCycle> cycles = RunRestoreCycles(
      {w.service}, w.service_epochs, seconds, 1, checks, &references);
  if (cycles.empty()) return;
  RecoveryStats s = SummarizeRecovery(cycles);
  (*v)["service.run_epoch_ms_p50"] = s.run_epoch_ms_p50;
  (*v)["service.checkpoint_ms_p50"] = s.checkpoint_ms_p50;
  (*v)["service.snapshot_kb_final"] = s.snapshot_kb_final;
  (*v)["service.restore_ms_per_snapshot_mb"] = s.restore_ms_per_snapshot_mb;
  (*v)["service.recovery_ms_p50"] = s.recovery_ms_p50;
  (*v)["service.recovery_ms_final"] = s.recovery_ms_final;
  for (const ServiceCycle& c : cycles) {
    counts->attempted += c.report.deals;
    counts->failed += c.report.deals - c.report.committed;
  }
  std::printf("info service cycles %zu of %zu x %zu deals\n", cycles.size(),
              w.service_epochs, w.service.deals_per_epoch);
}

RunCounts RunTraced(const Workload& w, const RunArgs& args, Metrics* metrics,
                    Checks* checks) {
  const Clock::time_point start = Clock::now();
  LayerValues v;
  RunCounts counts;
  ProbeCryptoLayer(&v, checks);
  TraceComposedLayers(w.composed, start, kComposedShare * args.seconds,
                      args.trace_out, &v, checks, &counts);
  ProbeServiceLayer(w, std::max(0.0, args.seconds - SecondsSince(start)), &v,
                    checks, &counts);
  checks->Expect(v.size() == LayerMetrics().size(),
                 "trace: every per-layer metric was measured");
  for (const auto& [name, unit] : LayerMetrics()) {
    checks->Expect(v.count(name) == 1, std::string("trace: measured ") + name);
    metrics->Add(name, v[name], unit);
  }
  return counts;
}

}  // namespace

bool IsKnownWorkload(const std::string& name) {
  Workload w;
  return MakeWorkload(name, 1, &w);
}

RunCounts RunWorkload(const RunArgs& args, Metrics* metrics, Checks* checks) {
  Workload w;
  MakeWorkload(args.workload, args.seed, &w);
  if (args.trace) return RunTraced(w, args, metrics, checks);
  if (w.kind == Kind::kService) {
    return RunServiceEndToEnd(w, args, metrics, checks);
  }
  return RunBatchEndToEnd(w, args, metrics, checks);
}

}  // namespace xbench
