// The composed deal pipeline: the batch traffic engine's deal stream,
// rebuilt from the public layer APIs the engine itself uses.
//
// RunTraffic is one opaque call, so a wall-clock split across layers has to
// come from outside it. ComposedPipeline walks the same steps RunTraffic
// takes for workloads without brokers, injections or watchtowers:
//
//   set-up   DealEnv + shared chain pool + CbcService shards + drivers, one
//            GenerateRandomDeal per deal from TrafficDealSeed, then either
//            an up-front CreateDealIn + Deploy per deal (controller off) or
//            one admission event per arrival (controller on), exactly as
//            the engine does;
//   run      World::scheduler().Run(), optionally under an EventTracer;
//   collect  gas attribution from receipts, DealRuntime::Collect and the
//            DealChecker properties per deal.
//
// Because the call sequence matches the engine's, a plain run reproduces
// RunTraffic's per-deal outcomes, gas, settle times and event count; the
// benchmark checks that before it trusts any per-layer number.

#ifndef XBENCH_PIPELINE_H_
#define XBENCH_PIPELINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cbc/cbc_service.h"
#include "core/admission.h"
#include "core/checker.h"
#include "core/env.h"
#include "core/protocol_driver.h"
#include "core/traffic_engine.h"
#include "sim/scheduler.h"
#include "util/arena.h"

namespace xbench {

constexpr size_t kNumEventKinds = 5;  // xdeal::EventKind values

/// One wall-clock span of the traced run. `lane` separates event kinds from
/// the pipeline's own phase and per-deal spans in the written trace.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t lane = 0;
  uint32_t id = 0;  // chain for events, deal index for per-deal spans
};

/// Scheduler instrumentation: a FIFO ChoicePolicy that records each chosen
/// event's label (and stamps its start once the scheduler has re-queued the
/// other ties), plus a StepObserver that stamps the end. Per-kind counts and
/// self times are folded as the run goes; every span is also kept in memory
/// for the trace file. Installing it does not change the event order (the
/// FIFO choice is the scheduler's own default order).
class EventTracer : public xdeal::ChoicePolicy {
 public:
  /// Lanes of the written trace: one per event kind, then pipeline spans.
  enum Lane : uint32_t {
    kLanePhase = kNumEventKinds,
    kLaneDeploy,
    kLaneCheck,
  };

  /// A timed tracer stamps every event and keeps its spans; an untimed one
  /// only counts event kinds and reads no clock.
  explicit EventTracer(bool timed) : timed_(timed) {}

  size_t Choose(const std::vector<xdeal::EnabledEvent>& enabled) override;
  bool ShouldDrop(const xdeal::EnabledEvent& chosen) override;
  void AfterStep(size_t pending);

  void Install(xdeal::Scheduler* scheduler);
  void Uninstall(xdeal::Scheduler* scheduler);

  void AddSpan(uint32_t lane, uint32_t id, int64_t start_ns, int64_t end_ns);

  const std::array<uint64_t, kNumEventKinds>& count() const { return count_; }
  const std::array<int64_t, kNumEventKinds>& self_ns() const { return self_ns_; }
  size_t max_backlog() const { return max_backlog_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool timed_;
  xdeal::EventLabel current_;
  int64_t current_start_ns_ = 0;
  std::array<uint64_t, kNumEventKinds> count_{};
  std::array<int64_t, kNumEventKinds> self_ns_{};
  size_t max_backlog_ = 0;
  std::vector<Span> spans_;
};

/// What one composed run produced: the per-deal fold the differential
/// checks compare, the layer counters, and the pipeline's own phase times.
struct PipelineResult {
  size_t deals = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t shed = 0;
  size_t violations = 0;
  size_t delayed_deals = 0;
  xdeal::Tick max_admission_wait = 0;
  uint64_t events = 0;
  uint64_t total_gas = 0;
  uint64_t untagged_gas = 0;
  /// Fold over (index, committed, aborted, gas, settle time) per deal.
  uint64_t fingerprint = 0;

  // Paper Figure 4 phase gas and commit-phase signature checks, summed.
  uint64_t gas_escrow = 0;
  uint64_t gas_transfer = 0;
  uint64_t gas_vote = 0;
  uint64_t gas_decide = 0;
  uint64_t gas_refund = 0;
  uint64_t sig_verifies = 0;

  uint64_t blocks = 0;
  uint64_t receipts = 0;
  uint64_t failed_receipts = 0;

  double setup_s = 0;
  double run_s = 0;
  double collect_s = 0;
  double deploy_s = 0;  // traced runs only: summed Deploy spans
  double check_s = 0;   // traced runs only: summed Collect + checker spans
};

/// The engine's fold over its per-deal records, computed the same way as
/// PipelineResult::fingerprint so the two can be compared.
uint64_t FoldReport(const xdeal::TrafficReport& report);

/// One composed run of `options` (no brokers, injections or watchtowers).
/// Construction is the set-up phase; Run and Collect must follow in order.
class ComposedPipeline {
 public:
  ComposedPipeline(const xdeal::TrafficOptions& options, EventTracer* tracer);
  ~ComposedPipeline();
  ComposedPipeline(const ComposedPipeline&) = delete;
  ComposedPipeline& operator=(const ComposedPipeline&) = delete;

  void Run();
  PipelineResult Collect();

 private:
  struct Slot;
  void Deploy(size_t d, xdeal::Tick admit_time);
  void Admit(size_t d);

  const xdeal::TrafficOptions options_;
  EventTracer* tracer_;
  xdeal::DealEnv env_;
  std::vector<xdeal::ChainId> pool_;
  std::unique_ptr<xdeal::CbcService> cbc_service_;
  xdeal::TimelockDriver timelock_driver_;
  std::unique_ptr<xdeal::CbcDriver> cbc_driver_;
  std::unique_ptr<xdeal::AdmissionController> controller_;
  size_t own_admission_events_ = 0;
  // Owns every deal's runtime and checker, as the engine's run-scoped arena
  // does; declared after the world and drivers so it is destroyed first.
  xdeal::Arena arena_;
  std::vector<Slot> slots_;
  PipelineResult result_;
};

}  // namespace xbench

#endif  // XBENCH_PIPELINE_H_
