#include "pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common.h"
#include "core/deal_gen.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace xbench {

using xdeal::AdmissionDecision;
using xdeal::ChainId;
using xdeal::DealChecker;
using xdeal::DealResult;
using xdeal::DealRuntime;
using xdeal::DealSpec;
using xdeal::DealTimings;
using xdeal::PartyId;
using xdeal::Protocol;
using xdeal::Receipt;
using xdeal::Tick;
using xdeal::TrafficOptions;

// --- EventTracer ------------------------------------------------------------

size_t EventTracer::Choose(const std::vector<xdeal::EnabledEvent>& enabled) {
  current_ = enabled[0].label;
  return 0;
}

bool EventTracer::ShouldDrop(const xdeal::EnabledEvent&) {
  // Called after the scheduler has re-queued the other ties and right
  // before the callback runs, so this stamp excludes the policy's own work.
  if (timed_) current_start_ns_ = NowNs();
  return false;
}

void EventTracer::AfterStep(size_t pending) {
  size_t kind = static_cast<size_t>(current_.kind);
  ++count_[kind];
  max_backlog_ = std::max(max_backlog_, pending);
  if (!timed_) return;
  int64_t end = NowNs();
  self_ns_[kind] += end - current_start_ns_;
  spans_.push_back(Span{current_start_ns_, end, static_cast<uint32_t>(kind),
                        current_.chain});
}

void EventTracer::Install(xdeal::Scheduler* scheduler) {
  scheduler->SetChoicePolicy(this);
  scheduler->SetStepObserver(
      [this](Tick, size_t pending) { AfterStep(pending); });
}

void EventTracer::Uninstall(xdeal::Scheduler* scheduler) {
  scheduler->SetStepObserver(nullptr);
  scheduler->SetChoicePolicy(nullptr);
}

void EventTracer::AddSpan(uint32_t lane, uint32_t id, int64_t start_ns,
                          int64_t end_ns) {
  if (timed_) spans_.push_back(Span{start_ns, end_ns, lane, id});
}

// --- ComposedPipeline ---------------------------------------------------------

struct ComposedPipeline::Slot {
  DealSpec spec;
  Protocol protocol = Protocol::kTimelock;
  Tick arrival_at = 0;
  Tick admitted_at = 0;
  size_t retries = 0;
  Tick wait = 0;
  bool started = false;
  bool shed = false;
  DealRuntime* runtime = nullptr;  // in arena_
  DealChecker* checker = nullptr;  // in arena_
};

namespace {

xdeal::EnvConfig MakeEnvConfig(const TrafficOptions& options) {
  xdeal::EnvConfig config;
  config.seed = options.base_seed;
  config.block_interval = options.block_interval;
  return config;
}

uint64_t FoldDeal(uint64_t fp, size_t index, bool committed, bool aborted,
                  uint64_t gas, Tick settle_time) {
  fp = xdeal::MixFingerprint(fp, index);
  fp = xdeal::MixFingerprint(fp, (committed ? 1u : 0u) | (aborted ? 2u : 0u));
  fp = xdeal::MixFingerprint(fp, gas);
  return xdeal::MixFingerprint(fp, settle_time);
}

constexpr uint64_t kFoldSeed = 0x6263686D61726B31ULL;

}  // namespace

uint64_t FoldReport(const xdeal::TrafficReport& report) {
  uint64_t fp = kFoldSeed;
  for (const xdeal::TrafficDealRecord& rec : report.deals) {
    fp = FoldDeal(fp, rec.index, rec.committed, rec.aborted, rec.gas,
                  rec.settle_time);
  }
  return fp;
}

ComposedPipeline::ComposedPipeline(const TrafficOptions& options,
                                   EventTracer* tracer)
    : options_(options), tracer_(tracer), env_(MakeEnvConfig(options)) {
  const Clock::time_point setup_start = Clock::now();
  const size_t num_deals = options_.num_deals;
  const size_t num_chains = std::max<size_t>(1, options_.num_chains);
  if (options_.indexed_observation) {
    env_.world().set_observation_delivery(
        xdeal::ObservationDelivery::kIndexed);
  }
  for (size_t c = 0; c < num_chains; ++c) {
    ChainId id = env_.AddChain("pool-" + std::to_string(c));
    env_.world().chain(id)->set_max_txs_per_block(options_.block_capacity);
    pool_.push_back(id);
  }

  const std::vector<Protocol> mix = options_.protocol_mix.empty()
                                        ? std::vector<Protocol>{Protocol::kTimelock}
                                        : options_.protocol_mix;
  bool any_cbc = false;
  for (size_t d = 0; d < num_deals; ++d) {
    any_cbc = any_cbc || mix[d % mix.size()] == Protocol::kCbc;
  }
  if (any_cbc) {
    xdeal::CbcService::Options service_options;
    service_options.num_shards = std::max<size_t>(1, options_.cbc_shards);
    service_options.f = 1;
    service_options.chain_name = "cbc";
    service_options.validator_seed =
        "traffic-" + std::to_string(options_.base_seed);
    service_options.block_interval = options_.block_interval;
    service_options.block_capacity = options_.block_capacity;
    cbc_service_ =
        std::make_unique<xdeal::CbcService>(&env_.world(), service_options);
    xdeal::CbcDriver::Options cbc_options;
    cbc_options.abort_patience =
        std::max(cbc_options.abort_patience, options_.delta);
    cbc_driver_ =
        std::make_unique<xdeal::CbcDriver>(cbc_service_.get(), cbc_options);
  }

  std::vector<Tick> arrivals = xdeal::BuildArrivalSchedule(
      options_.arrival, num_deals, options_.base_seed,
      options_.arrival == xdeal::ArrivalProcess::kFixedStagger
          ? static_cast<double>(options_.admission_gap)
          : options_.mean_interarrival);

  slots_.resize(num_deals);
  for (size_t d = 0; d < num_deals; ++d) {
    Slot& slot = slots_[d];
    slot.protocol = mix[d % mix.size()];
    slot.arrival_at = arrivals[d];
    const uint64_t seed = xdeal::TrafficDealSeed(options_.base_seed, d);
    xdeal::Rng rng(seed);
    xdeal::GenParams gen;
    gen.n_parties = options_.min_parties +
                    rng.Below(options_.max_parties - options_.min_parties + 1);
    gen.m_assets = options_.min_assets +
                   rng.Below(options_.max_assets - options_.min_assets + 1);
    gen.t_transfers = gen.n_parties + (gen.m_assets - 1) +
                      rng.Below(options_.extra_transfers + 1);
    gen.nft_every = options_.nft_every;
    gen.seed = seed;
    gen.name_prefix = "d" + std::to_string(d) + "-";
    // A contiguous window of the pool, so deals overlap on chains.
    size_t span = std::min(gen.m_assets, num_chains);
    size_t start = rng.Below(num_chains);
    for (size_t j = 0; j < span; ++j) {
      gen.use_chains.push_back(pool_[(start + j) % num_chains]);
    }
    gen.num_chains = span;
    slot.spec = xdeal::GenerateRandomDeal(&env_, gen);
    if (!options_.admission.enabled) Deploy(d, slot.arrival_at);
  }

  // With the controller on, deployment moves onto the scheduler: one
  // admission event per arrival, delayed or shed under backpressure.
  controller_ = std::make_unique<xdeal::AdmissionController>(
      options_.admission, &env_.world());
  if (options_.admission.enabled) {
    for (size_t d = 0; d < num_deals; ++d) {
      ++own_admission_events_;
      env_.world().scheduler().ScheduleAt(arrivals[d],
                                          [this, d] { Admit(d); });
    }
  }
  result_.deals = num_deals;
  result_.setup_s = SecondsSince(setup_start);
}

ComposedPipeline::~ComposedPipeline() = default;

void ComposedPipeline::Deploy(size_t d, Tick admit_time) {
  const int64_t start_ns = tracer_ != nullptr ? NowNs() : 0;
  Slot& slot = slots_[d];
  slot.admitted_at = admit_time;
  DealTimings timings = DealTimings::DefaultsFor(slot.protocol);
  timings.ShiftBy(admit_time);
  timings.delta = options_.delta;
  timings.deal_tag = static_cast<uint64_t>(d) + 1;
  xdeal::ProtocolDriver& driver =
      slot.protocol == Protocol::kCbc
          ? static_cast<xdeal::ProtocolDriver&>(*cbc_driver_)
          : timelock_driver_;
  slot.runtime =
      driver.CreateDealIn(&arena_, &env_.world(), slot.spec, timings);
  if (slot.runtime->Deploy().ok()) {
    slot.checker = arena_.Create<DealChecker>(
        &env_.world(), slot.spec, slot.runtime->escrow_contracts(),
        timings.deal_tag);
    slot.checker->CaptureInitial();
    slot.started = true;
  } else {
    ++result_.violations;  // the engine reports a failed start as one
  }
  if (tracer_ != nullptr) {
    const int64_t end_ns = NowNs();
    tracer_->AddSpan(EventTracer::kLaneDeploy, static_cast<uint32_t>(d),
                     start_ns, end_ns);
    result_.deploy_s += static_cast<double>(end_ns - start_ns) * 1e-9;
  }
}

void ComposedPipeline::Admit(size_t d) {
  --own_admission_events_;
  Slot& slot = slots_[d];
  AdmissionDecision decision =
      controller_->Decide(slot.retries, own_admission_events_, nullptr, d);
  if (decision == AdmissionDecision::kDelay) {
    ++slot.retries;
    ++own_admission_events_;
    const Tick retry_delay =
        options_.admission.retry_delay > 0 ? options_.admission.retry_delay : 1;
    env_.world().scheduler().ScheduleAfter(retry_delay,
                                           [this, d] { Admit(d); });
    return;
  }
  if (decision == AdmissionDecision::kShed) {
    slot.shed = true;
    slot.wait = env_.world().now() - slot.arrival_at;
    return;
  }
  slot.wait = env_.world().now() - slot.arrival_at;
  Deploy(d, env_.world().now());
}

void ComposedPipeline::Run() {
  xdeal::Scheduler& scheduler = env_.world().scheduler();
  const int64_t start_ns = NowNs();
  if (tracer_ != nullptr) tracer_->Install(&scheduler);
  scheduler.Run();
  if (tracer_ != nullptr) tracer_->Uninstall(&scheduler);
  const int64_t end_ns = NowNs();
  if (tracer_ != nullptr) {
    tracer_->AddSpan(EventTracer::kLanePhase, 0, start_ns, end_ns);
  }
  result_.run_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  result_.events = scheduler.stats().executed;
}

PipelineResult ComposedPipeline::Collect() {
  const Clock::time_point collect_start = Clock::now();
  const size_t num_deals = slots_.size();
  const xdeal::World& world = env_.world();

  std::vector<uint64_t> gas_by_deal(num_deals + 1, 0);
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    const xdeal::Blockchain* chain = world.chain(ChainId{c});
    result_.blocks += chain->blocks().size();
    for (const Receipt& r : chain->receipts()) {
      ++result_.receipts;
      if (!r.status.ok()) ++result_.failed_receipts;
      result_.total_gas += r.gas_used;
      if (r.deal_tag == 0 || r.deal_tag > num_deals) {
        result_.untagged_gas += r.gas_used;
      } else {
        gas_by_deal[r.deal_tag] += r.gas_used;
      }
    }
  }

  uint64_t fp = kFoldSeed;
  for (size_t d = 0; d < num_deals; ++d) {
    Slot& slot = slots_[d];
    if (slot.shed) ++result_.shed;
    if (slot.admitted_at > slot.arrival_at) ++result_.delayed_deals;
    result_.max_admission_wait =
        std::max(result_.max_admission_wait, slot.wait);
    DealResult r;
    if (slot.started) {
      const int64_t start_ns = tracer_ != nullptr ? NowNs() : 0;
      r = slot.runtime->Collect();
      const std::vector<PartyId>& parties = slot.spec.parties;
      bool ok = slot.checker->SafetyHolds(parties) &&
                slot.checker->WeakLivenessHolds(parties) &&
                slot.checker->StrongLivenessHolds();
      if (slot.protocol == Protocol::kCbc) {
        ok = ok && r.atomic && slot.checker->Atomic() && r.committed;
      }
      if (!ok) ++result_.violations;
      if (tracer_ != nullptr) {
        const int64_t end_ns = NowNs();
        tracer_->AddSpan(EventTracer::kLaneCheck, static_cast<uint32_t>(d),
                         start_ns, end_ns);
        result_.check_s += static_cast<double>(end_ns - start_ns) * 1e-9;
      }
      if (r.committed) ++result_.committed;
      if (r.aborted) ++result_.aborted;
      result_.gas_escrow += r.gas_escrow;
      result_.gas_transfer += r.gas_transfer;
      result_.gas_vote += r.gas_vote;
      result_.gas_decide += r.gas_decide;
      result_.gas_refund += r.gas_refund;
      result_.sig_verifies += r.sig_verifies;
    }
    fp = FoldDeal(fp, d, r.committed, r.aborted, gas_by_deal[d + 1],
                  r.settle_time);
  }
  result_.fingerprint = fp;
  result_.collect_s = SecondsSince(collect_start);
  return result_;
}

}  // namespace xbench
