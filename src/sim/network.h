// Network timing models.
//
// The paper's two protocols assume different communication models:
//   - Timelock (§5): synchronous — a known upper bound Δ on the time needed
//     to change any blockchain's state in a way observable by all parties.
//   - CBC (§6): eventually synchronous (Dwork-Lynch-Stockmeyer) — delays are
//     unbounded until a global stabilization time (GST), bounded by Δ after.
//
// A NetworkModel samples the one-way delay of a message between endpoints
// (party -> chain submissions, chain -> party observation notifications).
// Decorators model targeted denial-of-service attacks (§5.3, §9).

#ifndef XDEAL_SIM_NETWORK_H_
#define XDEAL_SIM_NETWORK_H_

#include <cstdint>
#include <memory>
#include <set>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace xdeal {

/// Opaque endpoint identifier. Parties and chains share one id space; the
/// World assigns them (parties first, then chains).
struct Endpoint {
  uint32_t id = 0;
  bool operator==(const Endpoint& o) const { return id == o.id; }
  bool operator<(const Endpoint& o) const { return id < o.id; }
};

/// Samples message delays. Implementations must be deterministic given the
/// Rng stream.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// One-way delay for a message sent at `now` from `from` to `to`.
  virtual Tick SampleDelay(Tick now, Endpoint from, Endpoint to, Rng* rng) = 0;

  /// Global stabilization time: delays are bounded from this tick on. 0 for
  /// every model that is synchronous from the start.
  virtual Tick gst() const { return 0; }
};

/// Synchronous model: uniform delay in [min_delay, max_delay]. The protocol's
/// Δ must be chosen >= max_delay plus block-inclusion latency.
class SynchronousNetwork : public NetworkModel {
 public:
  SynchronousNetwork(Tick min_delay, Tick max_delay)
      : min_delay_(min_delay), max_delay_(max_delay) {}

  Tick SampleDelay(Tick now, Endpoint from, Endpoint to, Rng* rng) override;

 private:
  Tick min_delay_;
  Tick max_delay_;
};

/// Eventually-synchronous model: before GST delays are uniform in
/// [min_delay, pre_gst_max] (pre_gst_max may be enormous); at/after GST the
/// bound drops to max_delay. A message sent before GST is additionally
/// guaranteed to arrive by GST + max_delay (the classical formulation).
class SemiSynchronousNetwork : public NetworkModel {
 public:
  SemiSynchronousNetwork(Tick gst, Tick pre_gst_max, Tick min_delay,
                         Tick max_delay)
      : gst_(gst),
        pre_gst_max_(pre_gst_max),
        min_delay_(min_delay),
        max_delay_(max_delay) {}

  Tick SampleDelay(Tick now, Endpoint from, Endpoint to, Rng* rng) override;

  Tick gst() const override { return gst_; }

 private:
  Tick gst_;
  Tick pre_gst_max_;
  Tick min_delay_;
  Tick max_delay_;
};

/// Decorator: during [attack_start, attack_end), any message to or from a
/// targeted endpoint is delayed until the end of the attack window (plus the
/// base delay). Models the §5.3 scenario where parties are "driven offline
/// before they can forward Bob's vote".
class TargetedDosNetwork : public NetworkModel {
 public:
  TargetedDosNetwork(std::unique_ptr<NetworkModel> base, Tick attack_start,
                     Tick attack_end)
      : base_(std::move(base)),
        attack_start_(attack_start),
        attack_end_(attack_end) {}

  void AddTarget(Endpoint e) { targets_.insert(e); }

  Tick SampleDelay(Tick now, Endpoint from, Endpoint to, Rng* rng) override;

 private:
  std::unique_ptr<NetworkModel> base_;
  Tick attack_start_;
  Tick attack_end_;
  std::set<Endpoint> targets_;
};

}  // namespace xdeal

#endif  // XDEAL_SIM_NETWORK_H_
