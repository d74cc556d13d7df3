// Tests for the crash-safe checkpoint subsystem (train/checkpoint.h),
// the fault-injection layer (common/fault.h) and the io::File wrapper
// (common/io_file.h).
//
// Four kinds of guarantees are exercised:
//  1. Round-trip fidelity: params, Adam moments, RNG stream and trainer
//     state all restore exactly; the retired v1 format is rejected.
//  2. The corruption matrix: truncation at every section boundary and a
//     single flipped bit in every section are detected (CRC32), always
//     failing cleanly without touching the restore target.
//  3. Crash recovery: a resumed run continues bit-identically with an
//     uninterrupted one across simd/arena/thread variants, and the
//     CheckpointManager falls back to the newest verifiable file.
//  4. Fault injection end-to-end: injected EIO, torn (short) writes,
//     payload bit flips and kill points behave as advertised.

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault.h"
#include "common/io_file.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/mgbr.h"
#include "data/dataset.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "train/checkpoint.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;
using mgbr::testing::TinyDataset;

struct ScopedSimd {
  explicit ScopedSimd(bool on) : saved(kernels::SimdEnabled()) {
    kernels::SetSimdEnabled(on);
  }
  ~ScopedSimd() { kernels::SetSimdEnabled(saved); }
  bool saved;
};

struct ScopedArena {
  explicit ScopedArena(bool on) : saved(TensorArena::Enabled()) {
    TensorArena::SetEnabled(on);
  }
  ~ScopedArena() { TensorArena::SetEnabled(saved); }
  bool saved;
};

bool BitEqualT(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

std::string ReadAll(const std::string& path) {
  Result<std::string> r = io::ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  Result<io::File> f = io::File::OpenForWrite(path);
  ASSERT_TRUE(f.ok());
  io::File file = std::move(f).value();
  ASSERT_TRUE(file.Write(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(file.Close().ok());
}

/// Byte offsets of interesting cut points in a v2 checkpoint: after the
/// magic, inside each section header, and at each section's start,
/// middle and end. Parsed from the file bytes with the same layout the
/// loader uses.
struct SectionSpan {
  uint32_t tag = 0;
  size_t header_offset = 0;   // first byte of the section header
  size_t payload_offset = 0;  // first byte of the payload
  size_t payload_size = 0;
};

std::vector<SectionSpan> ParseSectionSpans(const std::string& bytes) {
  std::vector<SectionSpan> spans;
  size_t pos = 8;  // magic
  uint32_t n_sections = 0;
  pos += sizeof(uint32_t);  // version
  std::memcpy(&n_sections, bytes.data() + pos, sizeof(n_sections));
  pos += sizeof(uint32_t);
  for (uint32_t i = 0; i < n_sections; ++i) {
    SectionSpan span;
    span.header_offset = pos;
    std::memcpy(&span.tag, bytes.data() + pos, sizeof(span.tag));
    uint64_t size = 0;
    std::memcpy(&size, bytes.data() + pos + 2 * sizeof(uint32_t),
                sizeof(size));
    span.payload_offset = pos + 2 * sizeof(uint32_t) + sizeof(uint64_t);
    span.payload_size = static_cast<size_t>(size);
    spans.push_back(span);
    pos = span.payload_offset + span.payload_size;
  }
  return spans;
}

// ---------------------------------------------------------------------------
// Building blocks: CRC32, RNG state round-trip.
// ---------------------------------------------------------------------------

TEST(ChecksumTest, Crc32MatchesKnownVectorsAndChains) {
  // The standard zlib/PNG check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining two halves equals one pass over the whole.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t half = Crc32(data.data(), 20);
  EXPECT_EQ(Crc32(data.data() + 20, data.size() - 20, half), whole);
}

TEST(RngStateTest, RoundTripResumesTheExactStream) {
  Rng rng(123);
  for (int i = 0; i < 7; ++i) rng.Next();
  rng.Gaussian();  // odd Box-Muller draw: leaves a cached spare behind
  const RngState snapshot = rng.state();
  EXPECT_TRUE(snapshot.has_cached_gaussian);

  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.Gaussian());
  for (int i = 0; i < 32; ++i) expected.push_back(rng.Uniform());

  Rng restored(999);  // different seed: state must fully overwrite it
  restored.set_state(snapshot);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(restored.Gaussian(), expected[i]);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.Uniform(), expected[32 + i]);
  }
}

// ---------------------------------------------------------------------------
// Full-checkpoint round trip.
// ---------------------------------------------------------------------------

/// Everything needed to train the reference MGBR model; construction is
/// deterministic so two Harness instances are bit-identical.
struct Harness {
  explicit Harness(TrainConfig config) : dataset(TinyDataset(12, 6, 60, 55)) {
    index = std::make_unique<InteractionIndex>(dataset);
    sampler = std::make_unique<TrainingSampler>(dataset, index.get());
    graphs = BuildGraphInputs(dataset);
    MgbrConfig mc;
    mc.dim = 4;
    mc.n_experts = 2;
    mc.aux_negatives = 2;
    Rng init_rng(2);
    model = std::make_unique<MgbrModel>(graphs, mc, &init_rng);
    trainer = std::make_unique<Trainer>(model.get(), sampler.get(), config);
  }

  GroupBuyingDataset dataset;
  std::unique_ptr<InteractionIndex> index;
  std::unique_ptr<TrainingSampler> sampler;
  GraphInputs graphs;
  std::unique_ptr<MgbrModel> model;
  std::unique_ptr<Trainer> trainer;
};

TrainConfig SmallTrainConfig(const std::string& checkpoint_dir = "") {
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 64;
  config.negs_per_pos = 1;
  config.aux_batch_size = 8;
  config.learning_rate = 0.01f;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

TEST(CheckpointV2Test, FullRoundTripRestoresEverySection) {
  Harness h(SmallTrainConfig());
  h.trainer->Train(2);
  Rng rng_at_save(77);
  rng_at_save.Next();
  TrainerState trainer_state;
  trainer_state.epochs_run = 2;
  trainer_state.best_metric = 0.625;
  trainer_state.best_epoch = 1;
  trainer_state.since_best = 1;

  const ScopedTempDir temp("ckpt_roundtrip");
  const std::string path = temp.File("roundtrip.mgbr");
  auto params = h.model->Parameters();
  CheckpointWriteRequest write;
  write.params = &params;
  write.optimizer = h.trainer->optimizer();
  write.rng = &rng_at_save;
  write.trainer = &trainer_state;
  write.fingerprint = h.trainer->ConfigFingerprint();
  ASSERT_TRUE(SaveCheckpoint(write, path).ok());

  // Snapshot, then wreck the live state.
  std::vector<Tensor> params_before;
  for (const Var& p : params) params_before.push_back(p.value());
  const int64_t t_before = h.trainer->optimizer()->step_count();
  const Tensor m0_before = h.trainer->optimizer()->first_moments()[0];
  const uint64_t next_draw_before = Rng(rng_at_save).Next();
  for (Var& p : params) p.mutable_value().Fill(0.25f);

  Harness h2(SmallTrainConfig());
  h2.trainer->Train(1);  // desynchronize optimizer + rng
  auto params2 = h2.model->Parameters();
  Rng rng_restored(31337);
  TrainerState state_restored;
  CheckpointReadRequest read;
  read.params = &params2;
  read.optimizer = h2.trainer->optimizer();
  read.rng = &rng_restored;
  read.trainer = &state_restored;
  read.expected_fingerprint = h2.trainer->ConfigFingerprint();
  ASSERT_TRUE(LoadCheckpoint(path, read).ok());

  for (size_t i = 0; i < params2.size(); ++i) {
    EXPECT_TRUE(BitEqualT(params2[i].value(), params_before[i]))
        << "parameter " << i;
  }
  EXPECT_EQ(h2.trainer->optimizer()->step_count(), t_before);
  EXPECT_TRUE(
      BitEqualT(h2.trainer->optimizer()->first_moments()[0], m0_before));
  EXPECT_EQ(rng_restored.Next(), next_draw_before);
  EXPECT_EQ(state_restored.epochs_run, 2);
  EXPECT_EQ(state_restored.best_metric, 0.625);
  EXPECT_EQ(state_restored.best_epoch, 1);
  EXPECT_EQ(state_restored.since_best, 1);
}

TEST(CheckpointV2Test, RngStreamsRoundTripAndCountIsEnforced) {
  // RNG1 with 1 main + 2 sampler streams: every stream resumes its
  // exact sequence, and a reader whose configuration expects a
  // different stream count is rejected (InvalidArgument, not corrupt).
  Rng main_rng(5);
  main_rng.Next();
  std::vector<Rng> streams{Rng::ForStream(7, 1000), Rng::ForStream(7, 1001)};
  streams[0].Next();
  streams[1].Gaussian();  // odd draw: cached spare must round-trip too
  const uint64_t main_next = Rng(main_rng).Next();
  const uint64_t s0_next = Rng(streams[0]).Next();
  const double s1_next = Rng(streams[1]).Gaussian();

  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  const ScopedTempDir temp("ckpt_rngstreams");
  const std::string path = temp.File("rngstreams.mgbr");
  CheckpointWriteRequest write;
  write.params = &params;
  write.rng = &main_rng;
  write.rng_streams = &streams;
  ASSERT_TRUE(SaveCheckpoint(write, path).ok());

  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  Rng main_restored(999);
  std::vector<Rng> streams_restored{Rng(1), Rng(2)};
  CheckpointReadRequest read;
  read.params = &restore;
  read.rng = &main_restored;
  read.rng_streams = &streams_restored;
  ASSERT_TRUE(LoadCheckpoint(path, read).ok());
  EXPECT_EQ(main_restored.Next(), main_next);
  EXPECT_EQ(streams_restored[0].Next(), s0_next);
  EXPECT_EQ(streams_restored[1].Gaussian(), s1_next);

  // Wrong expected count: 1 stream requested, file has 3.
  std::vector<Rng> wrong_count{Rng(1)};
  read.rng_streams = &wrong_count;
  EXPECT_EQ(LoadCheckpoint(path, read).code(),
            StatusCode::kInvalidArgument);
  // Legacy reader (no streams requested) also sees the mismatch.
  read.rng_streams = nullptr;
  EXPECT_EQ(LoadCheckpoint(path, read).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointV2Test, FingerprintMismatchIsRejected) {
  const ScopedTempDir temp("ckpt_fprint");
  const std::string path = temp.File("fprint.mgbr");
  std::vector<Var> params = {Var(Tensor::Full(3, 3, 1.5f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  write.fingerprint = 0xDEADBEEFu;
  ASSERT_TRUE(SaveCheckpoint(write, path).ok());

  std::vector<Var> restore = {Var(Tensor::Zeros(3, 3), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  read.expected_fingerprint = 0xFEEDFACEu;
  Status s = LoadCheckpoint(path, read);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 0.0f);  // untouched

  read.expected_fingerprint = 0xDEADBEEFu;
  EXPECT_TRUE(LoadCheckpoint(path, read).ok());
}

TEST(CheckpointV2Test, MissingRequestedSectionIsNotFound) {
  const ScopedTempDir temp("ckpt_nosec");
  const std::string path = temp.File("nosec.mgbr");
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  ASSERT_TRUE(SaveParameters(params, path).ok());  // params-only file

  Rng rng(1);
  CheckpointReadRequest read;
  read.params = &params;
  read.rng = &rng;
  EXPECT_EQ(LoadCheckpoint(path, read).code(), StatusCode::kNotFound);
}

TEST(CheckpointV2Test, RetiredV1MagicIsRejected) {
  // A well-formed v1 stream (magic, count, then rows/cols/data): the
  // format carried no checksums and is no longer read.
  std::string bytes = "MGBRCKP1";
  const uint64_t count = 1;
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const int64_t rows = 2, cols = 3;
  bytes.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  bytes.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  const float data[6] = {1, 2, 3, 4, 5, 6};
  bytes.append(reinterpret_cast<const char*>(data), sizeof(data));

  const ScopedTempDir temp("ckpt_v1");
  const std::string path = temp.File("v1.mgbr");
  WriteAll(path, bytes);
  std::vector<Var> params = {Var(Tensor::Full(2, 3, 7.0f), true)};
  EXPECT_EQ(LoadParameters(path, &params).code(),
            StatusCode::kInvalidArgument);
  CheckpointReadRequest read;
  read.params = &params;
  EXPECT_EQ(LoadCheckpoint(path, read).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(BitEqualT(params[0].value(), Tensor::Full(2, 3, 7.0f)));
}

// ---------------------------------------------------------------------------
// Corruption matrix.
// ---------------------------------------------------------------------------

class CorruptionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_.File("matrix.mgbr");
    Harness h(SmallTrainConfig());
    h.trainer->Train(1);
    rng_ = Rng(5);
    state_.epochs_run = 1;
    auto params = h.model->Parameters();
    CheckpointWriteRequest write;
    write.params = &params;
    write.optimizer = h.trainer->optimizer();
    write.rng = &rng_;
    write.trainer = &state_;
    write.fingerprint = h.trainer->ConfigFingerprint();
    ASSERT_TRUE(SaveCheckpoint(write, path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 64u);
    fingerprint_ = h.trainer->ConfigFingerprint();
    reference_params_.clear();
    for (const Var& p : params) reference_params_.push_back(p.value());
  }

  /// Builds a fresh all-sections read request over the given holders
  /// and asserts the load fails without touching any of them.
  void ExpectLoadFailsUntouched(const std::string& label) {
    std::vector<Var> params;
    for (const Tensor& t : reference_params_) {
      params.push_back(Var(Tensor::Zeros(t.rows(), t.cols()), true));
    }
    Adam optimizer(params, 0.01f);
    Rng rng(1);
    const RngState rng_state_before = rng.state();
    TrainerState state;
    CheckpointReadRequest read;
    read.params = &params;
    read.optimizer = &optimizer;
    read.rng = &rng;
    read.trainer = &state;
    read.expected_fingerprint = fingerprint_;
    const Status s = LoadCheckpoint(path_, read);
    EXPECT_FALSE(s.ok()) << label;
    for (const Var& p : params) {
      EXPECT_FLOAT_EQ(p.value().at(0, 0), 0.0f) << label;
    }
    EXPECT_EQ(optimizer.step_count(), 0) << label;
    EXPECT_EQ(std::memcmp(rng.state().s, rng_state_before.s,
                          sizeof(rng_state_before.s)),
              0)
        << label;
    EXPECT_EQ(state.epochs_run, 0) << label;
  }

  const ScopedTempDir temp_{"ckpt_matrix"};
  std::string path_;
  std::string bytes_;
  uint64_t fingerprint_ = 0;
  Rng rng_{5};
  TrainerState state_;
  std::vector<Tensor> reference_params_;
};

TEST_F(CorruptionMatrixTest, TruncationAtEverySectionBoundaryIsDetected) {
  const std::vector<SectionSpan> spans = ParseSectionSpans(bytes_);
  ASSERT_EQ(spans.size(), 5u);  // CFG1, PAR1, ADM1, RNG1, TRN1
  std::vector<size_t> cuts = {0, 4, 8, 12};  // inside magic / header
  for (const SectionSpan& span : spans) {
    cuts.push_back(span.header_offset);
    cuts.push_back(span.header_offset + 6);  // mid section header
    cuts.push_back(span.payload_offset);
    cuts.push_back(span.payload_offset + span.payload_size / 2);
    cuts.push_back(span.payload_offset + span.payload_size - 1);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, bytes_.size());
    WriteAll(path_, bytes_.substr(0, cut));
    ExpectLoadFailsUntouched("truncated to " + std::to_string(cut) +
                             " bytes");
  }
}

TEST_F(CorruptionMatrixTest, SingleBitFlipInEverySectionIsDetected) {
  const std::vector<SectionSpan> spans = ParseSectionSpans(bytes_);
  ASSERT_EQ(spans.size(), 5u);
  for (const SectionSpan& span : spans) {
    for (const size_t offset :
         {span.payload_offset, span.payload_offset + span.payload_size / 2,
          span.payload_offset + span.payload_size - 1}) {
      std::string corrupted = bytes_;
      corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x10);
      WriteAll(path_, corrupted);
      ExpectLoadFailsUntouched("bit flip at byte " + std::to_string(offset));
    }
  }
}

TEST_F(CorruptionMatrixTest, CorruptDetectionsAreCounted) {
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);
  Counter* corrupt =
      MetricsRegistry::Global().GetCounter("checkpoint.corrupt_detected");
  const int64_t before = corrupt->Value();
  std::string corrupted = bytes_;
  corrupted[bytes_.size() / 2] ^= 0x01;
  WriteAll(path_, corrupted);
  ExpectLoadFailsUntouched("counted bit flip");
  EXPECT_GT(corrupt->Value(), before);
  SetTelemetryEnabled(saved);
}

// ---------------------------------------------------------------------------
// CheckpointManager: rotation, stale temp cleanup, fall-back.
// ---------------------------------------------------------------------------

TEST(CheckpointManagerTest, RotationKeepsOnlyTheNewest) {
  const ScopedTempDir temp("ckpt_rotate");
  const std::string dir = temp.File("rotate");
  CheckpointManager manager(dir, /*keep_last=*/3);
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  for (int64_t epoch = 1; epoch <= 5; ++epoch) {
    params[0].mutable_value().Fill(static_cast<float>(epoch));
    ASSERT_TRUE(manager.Save(write, epoch).ok());
  }
  EXPECT_EQ(manager.ListEpochs(), (std::vector<int64_t>{3, 4, 5}));
  EXPECT_FALSE(io::Exists(manager.PathFor(1)));
  EXPECT_TRUE(io::Exists(manager.PathFor(5)));

  int64_t epoch = 0;
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  ASSERT_TRUE(manager.RestoreLatest(read, &epoch).ok());
  EXPECT_EQ(epoch, 5);
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 5.0f);
}

TEST(CheckpointManagerTest, StaleTempFilesAreSweptOnSave) {
  const ScopedTempDir temp("ckpt_staletmp");
  const std::string dir = temp.File("staletmp");
  ASSERT_TRUE(io::MakeDirs(dir).ok());
  const std::string stale = dir + "/ckpt-000001.mgbr.tmp";
  WriteAll(stale, "half-written garbage from a dead process");
  CheckpointManager manager(dir, 3);
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  ASSERT_TRUE(manager.Save(write, 2).ok());
  EXPECT_FALSE(io::Exists(stale));
  EXPECT_TRUE(io::Exists(manager.PathFor(2)));
}

TEST(CheckpointManagerTest, FallsBackPastCorruptNewestFile) {
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);
  Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("checkpoint.fallbacks");
  const int64_t fallbacks_before = fallbacks->Value();

  const ScopedTempDir temp("ckpt_fallback");
  const std::string dir = temp.File("fallback");
  CheckpointManager manager(dir, 3);
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  for (int64_t epoch = 1; epoch <= 3; ++epoch) {
    params[0].mutable_value().Fill(static_cast<float>(epoch));
    ASSERT_TRUE(manager.Save(write, epoch).ok());
  }
  // Flip one payload bit in the newest file.
  std::string newest = ReadAll(manager.PathFor(3));
  newest[newest.size() - 2] ^= 0x40;
  WriteAll(manager.PathFor(3), newest);

  int64_t epoch = 0;
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  ASSERT_TRUE(manager.RestoreLatest(read, &epoch).ok());
  EXPECT_EQ(epoch, 2);
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 2.0f);
  EXPECT_GT(fallbacks->Value(), fallbacks_before);
  SetTelemetryEnabled(saved);
}

TEST(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  const ScopedTempDir temp("ckpt_empty");
  CheckpointManager manager(temp.File("empty"), 3);
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  int64_t epoch = 0;
  EXPECT_EQ(manager.RestoreLatest(read, &epoch).code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Async checkpoint writes.
// ---------------------------------------------------------------------------

TEST(AsyncCheckpointTest, AsyncFileIsByteIdenticalToSync) {
  // Serialization happens on the caller thread in both modes and
  // WriteCheckpointBytes copies the image verbatim, so the landed file
  // must match byte for byte.
  Harness h(SmallTrainConfig());
  h.trainer->Train(1);
  auto params = h.model->Parameters();
  Rng rng(11);
  TrainerState state;
  state.epochs_run = 1;
  CheckpointWriteRequest write;
  write.params = &params;
  write.optimizer = h.trainer->optimizer();
  write.rng = &rng;
  write.trainer = &state;
  write.fingerprint = h.trainer->ConfigFingerprint();

  const ScopedTempDir temp("ckpt_async_eq_sync");
  const std::string sync_dir = temp.File("async_eq_sync");

  const std::string async_dir = temp.File("async_eq_async");
  CheckpointManager sync_manager(sync_dir, 3, /*async=*/false);
  ASSERT_TRUE(sync_manager.Save(write, 1).ok());
  {
    CheckpointManager async_manager(async_dir, 3, /*async=*/true);
    ASSERT_TRUE(async_manager.Save(write, 1).ok());
    ASSERT_TRUE(async_manager.WaitForPending().ok());
  }
  EXPECT_EQ(ReadAll(async_dir + "/ckpt-000001.mgbr"),
            ReadAll(sync_dir + "/ckpt-000001.mgbr"));
}

TEST(AsyncCheckpointTest, DestructorJoinsInFlightWrite) {
  const ScopedTempDir temp("ckpt_async_dtor");
  const std::string dir = temp.File("async_dtor");
  std::vector<Var> params = {Var(Tensor::Full(64, 64, 3.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  {
    CheckpointManager manager(dir, 3, /*async=*/true);
    ASSERT_TRUE(manager.Save(write, 1).ok());
    // No WaitForPending: destruction must join the writer itself.
  }
  std::vector<Var> restore = {Var(Tensor::Zeros(64, 64), true)};
  ASSERT_TRUE(
      LoadParameters(dir + "/ckpt-000001.mgbr", &restore).ok());
  EXPECT_FLOAT_EQ(restore[0].value().at(63, 63), 3.0f);
}

TEST(AsyncCheckpointTest, RotationAndRestoreWorkInAsyncMode) {
  const ScopedTempDir temp("ckpt_async_rotate");
  const std::string dir = temp.File("async_rotate");
  CheckpointManager manager(dir, /*keep_last=*/3, /*async=*/true);
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  for (int64_t epoch = 1; epoch <= 5; ++epoch) {
    params[0].mutable_value().Fill(static_cast<float>(epoch));
    ASSERT_TRUE(manager.Save(write, epoch).ok());
  }
  // RestoreLatest must join the in-flight epoch-5 write before scanning,
  // so the newest checkpoint is always visible.
  int64_t epoch = 0;
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  ASSERT_TRUE(manager.RestoreLatest(read, &epoch).ok());
  EXPECT_EQ(epoch, 5);
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 5.0f);
  EXPECT_EQ(manager.ListEpochs(), (std::vector<int64_t>{3, 4, 5}));
}

TEST(AsyncCheckpointTest, SnapshotIsImmuneToPostSaveMutation) {
  // Save() serializes before returning, so state mutated right after —
  // as the next training epoch would — must not leak into the file.
  const ScopedTempDir temp("ckpt_async_snapshot");
  const std::string dir = temp.File("async_snapshot");
  CheckpointManager manager(dir, 3, /*async=*/true);
  std::vector<Var> params = {Var(Tensor::Full(128, 64, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  ASSERT_TRUE(manager.Save(write, 1).ok());
  params[0].mutable_value().Fill(-9.0f);  // "next epoch" clobbers state
  ASSERT_TRUE(manager.WaitForPending().ok());
  std::vector<Var> restore = {Var(Tensor::Zeros(128, 64), true)};
  ASSERT_TRUE(
      LoadParameters(manager.PathFor(1), &restore).ok());
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 1.0f);
}

TEST(AsyncCheckpointTest, TrainerAsyncRunMatchesSyncByteForByte) {
  // End-to-end through the Trainer: the same run with
  // async_checkpoints on produces byte-identical checkpoint files (the
  // write path moves threads; the contents must not).
  const ScopedTempDir temp("ckpt_trainer_sync");
  const std::string sync_dir = temp.File("trainer_sync");
  const std::string async_dir = temp.File("trainer_async");
  {
    Harness h(SmallTrainConfig(sync_dir));
    h.trainer->Train(3);
  }
  {
    TrainConfig config = SmallTrainConfig(async_dir);
    config.async_checkpoints = true;
    Harness h(config);
    h.trainer->Train(3);  // Train() flushes the last write on exit
  }
  for (int64_t epoch = 1; epoch <= 3; ++epoch) {
    const std::string name =
        "/ckpt-00000" + std::to_string(epoch) + ".mgbr";
    EXPECT_EQ(ReadAll(async_dir + name), ReadAll(sync_dir + name))
        << "epoch " << epoch;
  }
}

// ---------------------------------------------------------------------------
// Resume-vs-uninterrupted bitwise equality.
// ---------------------------------------------------------------------------

/// Trains the reference model for 4 epochs in one uninterrupted run.
std::vector<Tensor> TrainStraight(const std::string& dir,
                                  int sampler_streams = 0) {
  TrainConfig config = SmallTrainConfig(dir);
  config.sampler_streams = sampler_streams;
  Harness h(config);
  h.trainer->Train(4);
  std::vector<Tensor> params;
  for (const Var& p : h.model->Parameters()) params.push_back(p.value());
  return params;
}

/// Trains the same 4 epochs as TrainStraight but restarts from the
/// newest checkpoint after every single epoch: a fresh Harness is built
/// each leg (as a restarted process would), resumed, run for one epoch
/// via the stop flag, and torn down.
std::vector<Tensor> TrainWithRestarts(const std::string& dir,
                                      int sampler_streams = 0) {
  TrainConfig config = SmallTrainConfig(dir);
  config.sampler_streams = sampler_streams;
  for (int leg = 0; leg < 4; ++leg) {
    Harness h(config);
    if (leg > 0) {
      Result<int64_t> resumed = h.trainer->TryResume();
      EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(resumed.value(), leg);
    }
    RequestStop();  // Train() exits (with a checkpoint) after one epoch
    h.trainer->Train(4);
    ClearStopRequest();
    EXPECT_EQ(h.trainer->state().epochs_run, leg + 1);
  }
  Harness final(config);
  Result<int64_t> resumed = final.trainer->TryResume();
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value(), 4);
  final.trainer->Train(4);  // already complete: must be a no-op
  EXPECT_EQ(final.trainer->state().epochs_run, 4);
  std::vector<Tensor> params;
  for (const Var& p : final.model->Parameters()) params.push_back(p.value());
  return params;
}

TEST(CheckpointResumeTest, ResumeIsBitIdenticalAcrossSimdArenaThreads) {
  const ScopedTempDir temp("ckpt_resume");
  const std::string base_dir = temp.File("resume");
  std::vector<Tensor> reference;
  {
    ScopedSimd simd(true);
    ScopedArena arena(true);
    ScopedNumThreads threads(1);
    reference = TrainStraight(base_dir + "_ref");
  }
  ASSERT_FALSE(reference.empty());
  const struct {
    bool simd, arena;
    int threads;
    const char* label;
  } variants[] = {
      {true, true, 1, "baseline"},
      {false, true, 1, "scalar dispatch"},
      {true, false, 4, "arena off, 4 threads"},
      {true, true, 4, "4 threads"},
  };
  int variant_index = 0;
  for (const auto& v : variants) {
    ScopedSimd simd(v.simd);
    ScopedArena arena(v.arena);
    ScopedNumThreads threads(v.threads);
    const std::string dir =
        base_dir + "_v" + std::to_string(variant_index++);
    const std::vector<Tensor> resumed = TrainWithRestarts(dir);
    ASSERT_EQ(resumed.size(), reference.size()) << v.label;
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(BitEqualT(reference[i], resumed[i]))
          << "parameter " << i << " diverged under " << v.label;
    }
    // The strongest form of the contract: the final checkpoint FILE of
    // the restarted run is byte-identical with the uninterrupted one.
    EXPECT_EQ(ReadAll(dir + "/ckpt-000004.mgbr"),
              ReadAll(base_dir + "_ref/ckpt-000004.mgbr"))
        << v.label;
  }
}

TEST(CheckpointResumeTest, SamplerStreamsResumeBitIdenticallyAcrossThreads) {
  // With persistent sampler streams the restart contract strengthens to
  // "bit-identical at ANY thread count": the streams (not the thread
  // layout) carry every sampling decision, and the RNG1 section
  // round-trips all of them.
  const ScopedTempDir temp("ckpt_resume_streams");
  const std::string base_dir = temp.File("resume_streams");
  std::vector<Tensor> reference;
  {
    ScopedNumThreads threads(1);
    reference = TrainStraight(base_dir + "_ref", /*sampler_streams=*/3);
  }
  ASSERT_FALSE(reference.empty());
  for (const int n_threads : {1, 4}) {
    ScopedNumThreads threads(n_threads);
    const std::string dir = base_dir + "_t" + std::to_string(n_threads);
    const std::vector<Tensor> resumed =
        TrainWithRestarts(dir, /*sampler_streams=*/3);
    ASSERT_EQ(resumed.size(), reference.size()) << n_threads << " threads";
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(BitEqualT(reference[i], resumed[i]))
          << "parameter " << i << " diverged at " << n_threads << " threads";
    }
    EXPECT_EQ(ReadAll(dir + "/ckpt-000004.mgbr"),
              ReadAll(base_dir + "_ref/ckpt-000004.mgbr"))
        << n_threads << " threads";
  }
  // A resume that asks for a different stream count than the file holds
  // rejects the file (InvalidArgument inside RestoreLatest's walk) and
  // falls back to a fresh start rather than silently mis-seeding the
  // sampler with a truncated stream set.
  TrainConfig mismatched = SmallTrainConfig(base_dir + "_ref");
  mismatched.sampler_streams = 2;
  Harness h(mismatched);
  Result<int64_t> resumed = h.trainer->TryResume();
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value(), 0);  // nothing loadable for this config
}

// ---------------------------------------------------------------------------
// Fault injection end-to-end.
// ---------------------------------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }

  static fault::Injection Make(fault::Injection::Kind kind,
                               const std::string& match, int64_t at = 0,
                               int64_t bit = 0) {
    fault::Injection injection;
    injection.kind = kind;
    injection.match = match;
    injection.at = at;
    injection.bit = bit;
    return injection;
  }
};

TEST_F(FaultInjectionTest, InjectedWriteEioFailsTheSave) {
  const ScopedTempDir temp("ckpt_eio");
  const std::string path = temp.File("eio.mgbr");
  fault::Install(
      Make(fault::Injection::Kind::kWriteEio, path));
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  Status s = SaveParameters(params, path);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(io::Exists(path));  // never renamed into place
}

TEST_F(FaultInjectionTest, TornShortWriteIsCaughtAtLoadTime) {
  const ScopedTempDir temp("ckpt_torn");
  const std::string path = temp.File("torn.mgbr");
  fault::Install(Make(fault::Injection::Kind::kWriteShort, path));
  std::vector<Var> params = {Var(Tensor::Full(8, 8, 2.0f), true)};
  // The torn write reports success — exactly the dangerous case.
  ASSERT_TRUE(SaveParameters(params, path).ok());
  std::vector<Var> restore = {Var(Tensor::Zeros(8, 8), true)};
  EXPECT_FALSE(LoadParameters(path, &restore).ok());
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 0.0f);
}

TEST_F(FaultInjectionTest, SilentBitFlipIsCaughtAtLoadTime) {
  const ScopedTempDir temp("ckpt_flip");
  const std::string path = temp.File("flip.mgbr");
  fault::Install(Make(fault::Injection::Kind::kWriteBitFlip, path,
                      /*at=*/0, /*bit=*/301));
  std::vector<Var> params = {Var(Tensor::Full(8, 8, 2.0f), true)};
  ASSERT_TRUE(SaveParameters(params, path).ok());
  std::vector<Var> restore = {Var(Tensor::Zeros(8, 8), true)};
  EXPECT_FALSE(LoadParameters(path, &restore).ok());
}

TEST_F(FaultInjectionTest, ManagerFallsBackAfterTornWrite) {
  const ScopedTempDir temp("ckpt_tornmgr");
  const std::string dir = temp.File("tornmgr");
  CheckpointManager manager(dir, 3);
  std::vector<Var> params = {Var(Tensor::Full(4, 4, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  ASSERT_TRUE(manager.Save(write, 1).ok());
  // Epoch 2's write is torn, silently.
  fault::Install(
      Make(fault::Injection::Kind::kWriteShort, manager.PathFor(2)));
  params[0].mutable_value().Fill(2.0f);
  ASSERT_TRUE(manager.Save(write, 2).ok());

  int64_t epoch = 0;
  std::vector<Var> restore = {Var(Tensor::Zeros(4, 4), true)};
  CheckpointReadRequest read;
  read.params = &restore;
  ASSERT_TRUE(manager.RestoreLatest(read, &epoch).ok());
  EXPECT_EQ(epoch, 1);
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 1.0f);
}

TEST_F(FaultInjectionTest, AsyncWriteErrorSurfacesOnTheNextSave) {
  // The async Save() itself returns OK (the failure happens on the
  // writer thread); the error must surface on the NEXT checkpoint
  // attempt — or WaitForPending — never be dropped.
  const ScopedTempDir temp("ckpt_async_eio");
  const std::string dir = temp.File("async_eio");
  CheckpointManager manager(dir, 3, /*async=*/true);
  std::vector<Var> params = {Var(Tensor::Full(4, 4, 1.0f), true)};
  CheckpointWriteRequest write;
  write.params = &params;
  fault::Install(
      Make(fault::Injection::Kind::kWriteEio, manager.PathFor(1)));
  ASSERT_TRUE(manager.Save(write, 1).ok());  // spawned, not yet failed
  EXPECT_EQ(manager.Save(write, 2).code(), StatusCode::kIoError);
  // The failed epoch never landed; the follow-up save was aborted
  // before starting, so a retry sees a clean slate.
  EXPECT_FALSE(io::Exists(manager.PathFor(1)));
  ASSERT_TRUE(manager.Save(write, 2).ok());
  ASSERT_TRUE(manager.WaitForPending().ok());
  EXPECT_TRUE(io::Exists(manager.PathFor(2)));
}

TEST_F(FaultInjectionTest, InjectedReadEioFailsTheLoad) {
  const ScopedTempDir temp("ckpt_reio");
  const std::string path = temp.File("reio.mgbr");
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  ASSERT_TRUE(SaveParameters(params, path).ok());
  fault::Install(Make(fault::Injection::Kind::kReadEio, path));
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  EXPECT_EQ(LoadParameters(path, &restore).code(), StatusCode::kIoError);
  fault::Clear();
  EXPECT_TRUE(LoadParameters(path, &restore).ok());  // one-shot injection
}

using FaultInjectionDeathTest = FaultInjectionTest;

TEST_F(FaultInjectionDeathTest, KillPointTerminatesWithTheAgreedExitCode) {
  EXPECT_EXIT(
      {
        fault::Injection injection;
        injection.kind = fault::Injection::Kind::kKill;
        injection.match = "checkpoint.pre_rename";
        fault::Install(injection);
        fault::KillPoint("checkpoint.pre_rename");
      },
      ::testing::ExitedWithCode(fault::kKillExitCode), "");
}

TEST_F(FaultInjectionDeathTest, KillBeforeRenameLeavesOldCheckpointIntact) {
  const ScopedTempDir temp("ckpt_killsafe");
  const std::string path = temp.File("killsafe.mgbr");
  std::vector<Var> params = {Var(Tensor::Full(2, 2, 1.0f), true)};
  ASSERT_TRUE(SaveParameters(params, path).ok());
  const std::string before = ReadAll(path);
  EXPECT_EXIT(
      {
        fault::Injection injection;
        injection.kind = fault::Injection::Kind::kKill;
        injection.match = "checkpoint.pre_rename";
        fault::Install(injection);
        params[0].mutable_value().Fill(9.0f);
        SaveParameters(params, path).ToString();  // dies mid-save
        std::_Exit(0);  // not reached
      },
      ::testing::ExitedWithCode(fault::kKillExitCode), "");
  // The published checkpoint is still the old, fully valid one.
  EXPECT_EQ(ReadAll(path), before);
  std::vector<Var> restore = {Var(Tensor::Zeros(2, 2), true)};
  ASSERT_TRUE(LoadParameters(path, &restore).ok());
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 1.0f);
}

TEST_F(FaultInjectionTest, DelayPointFiresRepeatedlyAtItsCadence) {
  // Unlike the one-shot kinds, a delay fires on every `every`-th
  // matching operation starting with the first — the serving watchdog
  // suite leans on this to wedge a scoring loop more than once.
  fault::Injection injection;
  injection.kind = fault::Injection::Kind::kDelay;
  injection.match = "test.delay_cadence";
  injection.ms = 30;
  injection.every = 2;
  fault::Install(injection);

  const auto timed = [](const char* point) {
    const auto start = std::chrono::steady_clock::now();
    fault::DelayPoint(point);
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  EXPECT_GE(timed("test.delay_cadence"), 30);  // occurrence 0 fires
  EXPECT_LT(timed("test.delay_cadence"), 30);  // occurrence 1 skipped
  EXPECT_GE(timed("test.delay_cadence"), 30);  // occurrence 2 fires
  // Exact point-name match only: a different point never sleeps.
  EXPECT_LT(timed("test.delay_cadence_other"), 30);
}

TEST_F(FaultInjectionTest, EnvGrammarParsesDelayDirective) {
  ::setenv("MGBR_FAULT", "delay@env_delay_probe:20:3", 1);
  fault::Clear();  // discard any previously parsed plan
  fault::InstallFromEnv();
  const auto timed = [] {
    const auto start = std::chrono::steady_clock::now();
    fault::DelayPoint("env_delay_probe");
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  EXPECT_GE(timed(), 20);  // occurrence 0
  EXPECT_LT(timed(), 20);  // 1
  EXPECT_LT(timed(), 20);  // 2
  EXPECT_GE(timed(), 20);  // 3: every third fires
  ::unsetenv("MGBR_FAULT");
}

TEST_F(FaultInjectionTest, MalformedDelayDirectivesAreSkipped) {
  // Zero/negative cadence and a missing duration are parse errors; the
  // malformed directive is logged and skipped, never half-armed.
  for (const char* bad :
       {"delay@p:20:0", "delay@p:20:-1", "delay@p", "delay@p:x"}) {
    ::setenv("MGBR_FAULT", bad, 1);
    fault::Clear();
    fault::InstallFromEnv();
    const auto start = std::chrono::steady_clock::now();
    fault::DelayPoint("p");
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              20)
        << bad;
  }
  ::unsetenv("MGBR_FAULT");
}

TEST_F(FaultInjectionTest, EnvGrammarRoundTrips) {
  // InstallFromEnv parses MGBR_FAULT; exercise the parser through a
  // programmatic install + the documented grammar via setenv.
  ::setenv("MGBR_FAULT", "eio@env_grammar_probe:0", 1);
  fault::Clear();  // discard any previously parsed plan
  fault::InstallFromEnv();
  const ScopedTempDir temp("ckpt_env_grammar");
  Result<io::File> f =
      io::File::OpenForWrite(temp.File("env_grammar_probe.bin"));
  ASSERT_TRUE(f.ok());
  io::File file = std::move(f).value();
  const char byte = 'x';
  EXPECT_EQ(file.Write(&byte, 1).code(), StatusCode::kIoError);
  ::unsetenv("MGBR_FAULT");
}

}  // namespace
}  // namespace mgbr
