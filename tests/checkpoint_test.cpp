// TrafficService checkpoint/restore: a run killed at any epoch boundary and
// restored from its snapshot finishes bit-identical to the uninterrupted
// run — same cumulative fingerprint, same epoch reports, same final report
// text — across thread counts, shard counts, broker configurations, the
// admission controller, the full-scan receipt-index oracle, and a
// validator reconfiguration scheduled beyond the checkpoint. Corrupted or
// mismatched snapshots are rejected with distinct errors, never restored.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/traffic_engine.h"
#include "crypto/sha256.h"
#include "golden_fps.h"
#include "util/serialize.h"

namespace xdeal {
namespace {

TrafficOptions ServiceOptions() {
  TrafficOptions options;
  options.base_seed = 77;
  options.num_chains = 4;
  options.deals_per_epoch = 12;
  options.indexed_observation = true;
  options.watchtower_every = 5;
  return options;
}

/// Runs `epochs` epochs straight through and returns the final report.
ServiceReport RunStraight(const TrafficOptions& options, size_t epochs) {
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  for (size_t e = 0; e < epochs; ++e) service.value()->RunEpoch();
  return service.value()->Finish();
}

/// Runs `before` epochs, checkpoints, restores into a fresh service under
/// `restore_options`, runs the remaining epochs there, and returns the
/// restored service's final report.
ServiceReport RunWithRestore(const TrafficOptions& options,
                             const TrafficOptions& restore_options,
                             size_t before, size_t total) {
  Result<std::unique_ptr<TrafficService>> first =
      TrafficService::Create(options);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  for (size_t e = 0; e < before; ++e) first.value()->RunEpoch();
  Result<Bytes> snapshot = first.value()->Checkpoint();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  first.value().reset();  // the original process is gone

  Result<std::unique_ptr<TrafficService>> second =
      TrafficService::FromSnapshot(restore_options, snapshot.value());
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value()->epochs_run(), before);
  for (size_t e = before; e < total; ++e) second.value()->RunEpoch();
  return second.value()->Finish();
}

void ExpectBitIdentical(const ServiceReport& restored,
                        const ServiceReport& straight) {
  EXPECT_EQ(restored.final_fingerprint, straight.final_fingerprint);
  EXPECT_EQ(restored.Summary(), straight.Summary());
  ASSERT_EQ(restored.epoch_reports.size(), straight.epoch_reports.size());
  for (size_t e = 0; e < straight.epoch_reports.size(); ++e) {
    const EpochReport& a = restored.epoch_reports[e];
    const EpochReport& b = straight.epoch_reports[e];
    EXPECT_EQ(a.epoch_fingerprint, b.epoch_fingerprint) << "epoch " << e;
    EXPECT_EQ(a.cumulative_fingerprint, b.cumulative_fingerprint)
        << "epoch " << e;
    EXPECT_EQ(a.sealed_at, b.sealed_at) << "epoch " << e;
    EXPECT_EQ(a.gas, b.gas) << "epoch " << e;
    EXPECT_EQ(a.untagged_gas, b.untagged_gas) << "epoch " << e;
    EXPECT_EQ(a.violations, b.violations) << "epoch " << e;
  }
  EXPECT_EQ(restored.violations.size(), straight.violations.size());
  ASSERT_EQ(restored.brokers.size(), straight.brokers.size());
  for (size_t b = 0; b < straight.brokers.size(); ++b) {
    EXPECT_EQ(restored.brokers[b].coin_delta, straight.brokers[b].coin_delta);
    EXPECT_EQ(restored.brokers[b].portfolio_ok,
              straight.brokers[b].portfolio_ok);
  }
}

// --- the differential harness: every boundary, every configuration -------

TEST(CheckpointTest, RestoreAtEveryBoundaryIsBitIdentical) {
  const size_t kEpochs = 4;
  TrafficOptions options = ServiceOptions();
  ServiceReport straight = RunStraight(options, kEpochs);
  EXPECT_GT(straight.committed, 0u);
  for (size_t boundary = 1; boundary < kEpochs; ++boundary) {
    ServiceReport restored =
        RunWithRestore(options, options, boundary, kEpochs);
    ExpectBitIdentical(restored, straight);
  }
}

TEST(CheckpointTest, RestoreUnderDifferentThreadCountIsBitIdentical) {
  TrafficOptions one = ServiceOptions();
  one.num_threads = 1;
  ServiceReport straight = RunStraight(one, 3);
  // Validation threading must not affect results, so a snapshot taken by a
  // 1-thread process restores into an 8-thread one (and vice versa).
  TrafficOptions eight = ServiceOptions();
  eight.num_threads = 8;
  ExpectBitIdentical(RunWithRestore(one, eight, 1, 3), straight);
  ExpectBitIdentical(RunWithRestore(eight, one, 2, 3), straight);
}

TEST(CheckpointTest, RestoreWithShardedCbcIsBitIdentical) {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 78;
  options.cbc_shards = 8;
  options.cbc_xshard_every = 2;
  ServiceReport straight = RunStraight(options, 3);
  EXPECT_GT(straight.cross_shard_deals, 0u);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

TEST(CheckpointTest, RestoreWithBrokersIsBitIdentical) {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 79;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 3;
  ServiceReport straight = RunStraight(options, 3);
  EXPECT_GT(straight.broker_deals, 0u);
  ASSERT_EQ(straight.brokers.size(), 2u);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

TEST(CheckpointTest, ReconfigurationBeyondTheCheckpointSurvivesRestore) {
  // Probe one epoch to find its seal time, then schedule a validator
  // rotation INSIDE epoch 2 — after the epoch-1 checkpoint. The rotation is
  // a durable scheduler event: it must ride through serialization and
  // re-fire at its original (time, seq) position in the restored run.
  TrafficOptions probe = ServiceOptions();
  probe.base_seed = 80;
  Result<std::unique_ptr<TrafficService>> probe_service =
      TrafficService::Create(probe);
  ASSERT_TRUE(probe_service.ok());
  Tick sealed_at = probe_service.value()->RunEpoch().sealed_at;

  TrafficOptions options = probe;
  options.cbc_reconfig_times = {sealed_at + 25};
  ServiceReport straight = RunStraight(options, 3);
  ExpectBitIdentical(RunWithRestore(options, options, 1, 3), straight);
  ExpectBitIdentical(RunWithRestore(options, options, 2, 3), straight);
}

TEST(CheckpointTest, CrashInjectionSurvivesRestore) {
  // Tower and broker kills are part of the workload; a snapshot between a
  // broker's crash and her scheduled recovery must restore the crashed
  // book and the pending durable recovery event.
  TrafficOptions probe = ServiceOptions();
  probe.base_seed = 81;
  probe.brokers.num_brokers = 2;
  probe.brokers.broker_every = 3;
  Result<std::unique_ptr<TrafficService>> probe_service =
      TrafficService::Create(probe);
  ASSERT_TRUE(probe_service.ok());
  Tick sealed_at = probe_service.value()->RunEpoch().sealed_at;

  TrafficOptions options = probe;
  options.tower_crash_every = 2;
  options.tower_crash_after = 40;
  options.tower_recover_after = 60;
  options.broker_crash_times = {sealed_at / 2, sealed_at + 30};
  options.broker_recover_after = sealed_at;  // spans the epoch-1 boundary
  ServiceReport straight = RunStraight(options, 3);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

TEST(CheckpointTest, RestoreWithAdmissionControllerIsBitIdentical) {
  // The controller is scoped to one epoch and every admission event fires
  // inside it, so delayed and shed deals restore like any other: the
  // epoch fold carries their retries, waits, and shed flags.
  TrafficOptions options = ServiceOptions();
  options.base_seed = 82;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 4.0;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 3;
  options.admission.enabled = true;
  options.admission.max_scheduler_backlog = 80;
  const size_t kEpochs = 4;
  ServiceReport straight = RunStraight(options, kEpochs);
  // The thresholds bite: some deals are shed, the rest commit.
  EXPECT_GT(straight.committed, 0u);
  EXPECT_LT(straight.committed, straight.deals);
  EXPECT_TRUE(straight.violations.empty()) << straight.Summary();
  for (size_t boundary = 1; boundary < kEpochs; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, kEpochs),
                       straight);
  }

  // A restore under different thresholds is a different workload.
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  ASSERT_TRUE(service.ok());
  service.value()->RunEpoch();
  Result<Bytes> snapshot = service.value()->Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  TrafficOptions looser = options;
  looser.admission.max_scheduler_backlog = 160;
  EXPECT_FALSE(TrafficService::FromSnapshot(looser, snapshot.value()).ok());
}

TEST(CheckpointTest, FullScanOracleHoldsAcrossRestore) {
  // Restored chains start with no receipt history and rebuild their tag
  // index from the next receipt on; the oracle must agree on both sides of
  // the boundary.
  TrafficOptions options = ServiceOptions();
  options.base_seed = 83;
  options.fullscan_oracle = true;
  ServiceReport straight = RunStraight(options, 3);
  ServiceReport restored = RunWithRestore(options, options, 1, 3);
  ExpectBitIdentical(restored, straight);
  for (const ServiceReport* report : {&straight, &restored}) {
    EXPECT_GT(report->committed, 0u);
    for (const TrafficViolation& v : report->violations) {
      EXPECT_EQ(v.what.find("receipt-index-mismatch"), std::string::npos)
          << v.what;
    }
  }
}

// --- snapshot envelope rejection -----------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = ServiceOptions();
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options_);
    ASSERT_TRUE(service.ok());
    service.value()->RunEpoch();
    Result<Bytes> snapshot = service.value()->Checkpoint();
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = snapshot.value();
  }

  std::string RestoreError(const TrafficOptions& options,
                           const Bytes& snapshot) {
    Result<std::unique_ptr<TrafficService>> restored =
        TrafficService::FromSnapshot(options, snapshot);
    EXPECT_FALSE(restored.ok());
    return restored.ok() ? "" : restored.status().ToString();
  }

  TrafficOptions options_;
  Bytes snapshot_;
};

// Forged payloads: an attacker who rewrites the payload can recompute its
// SHA-256, so the digest check passes and the payload parser itself must
// reject the bytes. These helpers edit the payload and re-seal the digest.

/// Rebuilds `snapshot` with its payload passed through `edit` and the digest
/// recomputed, so only the payload parser stands between it and a restore.
Bytes Reseal(const Bytes& snapshot, const std::function<void(Bytes*)>& edit) {
  ByteReader envelope(snapshot);
  Bytes magic = envelope.Raw(8).value();
  uint32_t version = envelope.U32().value();
  uint64_t options_fp = envelope.U64().value();
  Bytes payload = envelope.Blob().value();
  edit(&payload);
  Hash256 digest = Sha256Digest(payload);
  ByteWriter out;
  out.Raw(magic).U32(version).U64(options_fp).Blob(payload);
  out.Raw(digest.bytes.data(), digest.bytes.size());
  return out.Take();
}

/// Overwrites the little-endian u32 at `offset`.
void PutU32(Bytes* b, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*b)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

TEST_F(SnapshotRejectTest, IntactSnapshotRestores) {
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, snapshot_);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  // Re-sealing an unedited payload is the identity, so each forgery below
  // is rejected for its edit alone.
  EXPECT_EQ(Reseal(snapshot_, [](Bytes*) {}), snapshot_);
}

TEST_F(SnapshotRejectTest, BadMagic) {
  Bytes bad = snapshot_;
  bad[0] ^= 0xFF;
  EXPECT_NE(RestoreError(options_, bad).find("bad magic"), std::string::npos);
}

TEST_F(SnapshotRejectTest, UnsupportedVersion) {
  Bytes bad = snapshot_;
  bad[8] ^= 0xFF;  // envelope layout: magic[0,8) version[8,12)
  EXPECT_NE(RestoreError(options_, bad).find("unsupported snapshot version"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, OptionsMismatch) {
  TrafficOptions other = options_;
  other.base_seed += 1;
  EXPECT_NE(
      RestoreError(other, snapshot_).find("options fingerprint mismatch"),
      std::string::npos);
}

TEST_F(SnapshotRejectTest, CorruptedPayload) {
  Bytes bad = snapshot_;
  bad[bad.size() / 2] ^= 0xFF;  // deep inside the payload blob
  EXPECT_NE(RestoreError(options_, bad).find("payload digest mismatch"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, TruncatedSnapshot) {
  Bytes bad(snapshot_.begin(), snapshot_.begin() + snapshot_.size() / 2);
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, bad);
  EXPECT_FALSE(restored.ok());
}

TEST_F(SnapshotRejectTest, ForgedDurableEventCountIsRejected) {
  // Payload layout: world blob length (u32), then the world checkpoint:
  // 4 RNG words and 5 scheduler words (u64 each), then the durable-event
  // count. A count of 2^32 - 1 once reached a reserve() that threw
  // std::bad_alloc out of FromSnapshot.
  constexpr size_t kDurableCount = 4 + 4 * 8 + 5 * 8;
  Bytes bad = Reseal(snapshot_, [](Bytes* payload) {
    PutU32(payload, kDurableCount, 0xFFFFFFFFu);
  });
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, bad);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotRejectTest, ForgedShardEpochIsRejected) {
  // The payload ends with: has_cbc, shard count, one u32 epoch per shard,
  // has_brokers. These options schedule no reconfiguration, so any epoch
  // above 0 is forged; 2e9 once made the restore replay 2e9 rotations.
  ASSERT_EQ(options_.brokers.num_brokers, 0u);
  Bytes bad = Reseal(snapshot_, [](Bytes* payload) {
    ASSERT_EQ(payload->back(), 0);  // has_brokers = false
    PutU32(payload, payload->size() - 1 - 4, 2000000000u);
  });
  EXPECT_NE(RestoreError(options_, bad).find("shard epoch beyond"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, TrailingBytesAreRejected) {
  Bytes padded_payload =
      Reseal(snapshot_, [](Bytes* payload) { payload->push_back(0); });
  EXPECT_NE(RestoreError(options_, padded_payload)
                .find("trailing bytes after the last field"),
            std::string::npos);

  Bytes padded_envelope = snapshot_;
  padded_envelope.push_back(0);
  EXPECT_NE(RestoreError(options_, padded_envelope)
                .find("trailing bytes after the payload digest"),
            std::string::npos);
}

// --- service-mode preconditions ------------------------------------------

TEST(CheckpointTest, ServiceModeRequiresEpochSizeAndIndexedDelivery) {
  TrafficOptions no_epoch = ServiceOptions();
  no_epoch.deals_per_epoch = 0;
  EXPECT_FALSE(TrafficService::Create(no_epoch).ok());

  TrafficOptions broadcast = ServiceOptions();
  broadcast.indexed_observation = false;
  EXPECT_FALSE(TrafficService::Create(broadcast).ok());
}

// --- golden regression: the new knobs, left at their defaults, must not
//     perturb the legacy batch engine by a single bit -----------------------

TEST(CheckpointTest, ServiceKnobsOffPreserveGoldenFingerprints) {
  TrafficOptions mixed;
  mixed.base_seed = 101;
  mixed.num_deals = 40;
  mixed.num_chains = 6;
  // Spell out the service/crash defaults so a default-value change that
  // would silently shift the goldens fails HERE, by name.
  mixed.deals_per_epoch = 0;
  mixed.tower_crash_every = 0;
  mixed.tower_crash_after = 0;
  mixed.tower_recover_after = 0;
  mixed.broker_crash_times = {};
  mixed.broker_recover_after = 0;
  EXPECT_EQ(RunTraffic(mixed).fingerprint, kGoldenFpMixedSeed101);

  TrafficOptions cbc;
  cbc.base_seed = 202;
  cbc.num_deals = 30;
  cbc.num_chains = 4;
  cbc.protocol_mix = {Protocol::kCbc};
  cbc.deals_per_epoch = 0;
  cbc.tower_crash_every = 0;
  cbc.broker_crash_times = {};
  EXPECT_EQ(RunTraffic(cbc).fingerprint, kGoldenFpCbcSeed202);
}

}  // namespace
}  // namespace xdeal
