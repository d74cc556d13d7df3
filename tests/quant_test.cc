// Tests for the quantized scoring path (src/tensor/quant.*,
// src/models/quant_view.*, and its serve/ wiring): the bf16
// round-to-nearest-even and int8 symmetric encodings' exact semantics,
// bitwise identity of quantized storage and GEMV scores across the
// simd/scalar kernel variants and thread counts, quantized-vs-fp32
// ranking agreement on the view-implementing models (and the null view
// on MGBR), the (score desc, index asc) tie rule on both TopKIndices
// selection paths plus Histogram::Quantile on constant input, and the
// server integration — quantized responses bitwise attributable to the
// pinned version's view, hot swaps never serving a stale quantized
// table, and the fp32 default path left untouched.
// QuantTableTest / ServeQuantTest run under TSan in CI.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/mgbr.h"
#include "eval/metrics.h"
#include "models/gbgcn.h"
#include "models/graph_inputs.h"
#include "models/lightgcn.h"
#include "models/quant_view.h"
#include "serve/model_pool.h"
#include "serve/server.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "tensor/variable.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::TinyDataset;
using serve::ModelPool;
using serve::Request;
using serve::Response;
using serve::ResponseCode;
using serve::Server;
using serve::ServerConfig;
using serve::TaskKind;

struct ScopedSimd {
  explicit ScopedSimd(bool on) : saved(kernels::SimdEnabled()) {
    kernels::SetSimdEnabled(on);
  }
  ~ScopedSimd() { kernels::SetSimdEnabled(saved); }
  bool saved;
};

std::vector<float> RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(n * d));
  for (float& v : data) v = static_cast<float>(rng.Gaussian());
  return data;
}

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

float BitsFloat(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint16_t EncodeOne(float v) {
  uint16_t out;
  kernels::Fp32ToBf16(&v, &out, 1);
  return out;
}

float DecodeOne(uint16_t v) {
  float out;
  kernels::Bf16ToFp32(&v, &out, 1);
  return out;
}

// ---------------------------------------------------------------------------
// Kernel-level encodings.
// ---------------------------------------------------------------------------

TEST(QuantKernelsTest, Bf16RoundsToNearestEven) {
  // Exactly representable values pass through.
  EXPECT_EQ(EncodeOne(1.0f), 0x3F80);
  EXPECT_EQ(EncodeOne(-2.0f), 0xC000);
  EXPECT_EQ(EncodeOne(0.0f), 0x0000);
  // Halfway cases round to the even mantissa: 0x3F808000 is exactly
  // between bf16 codes 0x3F80 and 0x3F81 and must round DOWN (0x3F80
  // has an even low bit); 0x3F818000 is between 0x3F81 and 0x3F82 and
  // must round UP.
  EXPECT_EQ(EncodeOne(BitsFloat(0x3F808000u)), 0x3F80);
  EXPECT_EQ(EncodeOne(BitsFloat(0x3F818000u)), 0x3F82);
  // Just above/below halfway round to nearest regardless of parity.
  EXPECT_EQ(EncodeOne(BitsFloat(0x3F808001u)), 0x3F81);
  EXPECT_EQ(EncodeOne(BitsFloat(0x3F817FFFu)), 0x3F81);
}

TEST(QuantKernelsTest, Bf16QuietsNaNAndRoundTripsEveryCode) {
  const uint16_t quiet = EncodeOne(std::nanf(""));
  EXPECT_TRUE(std::isnan(DecodeOne(quiet)));
  EXPECT_NE(quiet & 0x0040, 0) << "NaN must carry the quiet bit";

  // decode -> encode is the identity on every non-NaN bf16 code (the
  // decode is exact, so re-encoding must not move the value).
  for (uint32_t code = 0; code <= 0xFFFF; ++code) {
    const uint16_t c = static_cast<uint16_t>(code);
    const float decoded = DecodeOne(c);
    if (std::isnan(decoded)) continue;
    EXPECT_EQ(EncodeOne(decoded), c) << "code 0x" << std::hex << code;
  }
}

TEST(QuantKernelsTest, Int8ScaleIsMaxabsOver127) {
  const float row[4] = {0.0f, 63.5f, -127.0f, 1.0f};
  int8_t codes[4];
  float scale = -1.0f;
  kernels::QuantizeInt8Rows(row, codes, &scale, 1, 4);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 64);  // 63.5 -> nearest even
  EXPECT_EQ(codes[2], -127);
  EXPECT_EQ(codes[3], 1);

  // An all-zero row quantizes to scale 0 / codes 0 (never divides by
  // zero), and decodes back to exact zeros.
  const float zeros[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  kernels::QuantizeInt8Rows(zeros, codes, &scale, 1, 4);
  EXPECT_EQ(scale, 0.0f);
  float decoded[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  kernels::DequantizeInt8Row(codes, scale, decoded, 4);
  for (float v : decoded) EXPECT_EQ(v, 0.0f);
}

TEST(QuantKernelsTest, SimdAndScalarVariantsAreBitwiseIdentical) {
  const int64_t n = 37, d = 19;  // deliberately not multiples of kLanes
  const std::vector<float> data = RandomRows(n, d, 7);
  const std::vector<float> query = RandomRows(1, d, 8);

  std::vector<uint16_t> bf16_simd(data.size()), bf16_scalar(data.size());
  kernels::simd::Fp32ToBf16(data.data(), bf16_simd.data(),
                            static_cast<int64_t>(data.size()));
  kernels::scalar::Fp32ToBf16(data.data(), bf16_scalar.data(),
                              static_cast<int64_t>(data.size()));
  EXPECT_EQ(std::memcmp(bf16_simd.data(), bf16_scalar.data(),
                        sizeof(uint16_t) * data.size()),
            0);

  std::vector<int8_t> i8_simd(data.size()), i8_scalar(data.size());
  std::vector<float> sc_simd(static_cast<size_t>(n)),
      sc_scalar(static_cast<size_t>(n));
  kernels::simd::QuantizeInt8Rows(data.data(), i8_simd.data(),
                                  sc_simd.data(), n, d);
  kernels::scalar::QuantizeInt8Rows(data.data(), i8_scalar.data(),
                                    sc_scalar.data(), n, d);
  EXPECT_EQ(std::memcmp(i8_simd.data(), i8_scalar.data(), data.size()), 0);
  EXPECT_EQ(std::memcmp(sc_simd.data(), sc_scalar.data(),
                        sizeof(float) * static_cast<size_t>(n)),
            0);

  std::vector<float> out_simd(static_cast<size_t>(n)),
      out_scalar(static_cast<size_t>(n));
  kernels::simd::GemvRowsBf16(bf16_simd.data(), query.data(),
                              out_simd.data(), 0, n, d);
  kernels::scalar::GemvRowsBf16(bf16_scalar.data(), query.data(),
                                out_scalar.data(), 0, n, d);
  EXPECT_EQ(std::memcmp(out_simd.data(), out_scalar.data(),
                        sizeof(float) * static_cast<size_t>(n)),
            0);
  kernels::simd::GemvRowsInt8(i8_simd.data(), sc_simd.data(), query.data(),
                              out_simd.data(), 0, n, d);
  kernels::scalar::GemvRowsInt8(i8_scalar.data(), sc_scalar.data(),
                                query.data(), out_scalar.data(), 0, n, d);
  EXPECT_EQ(std::memcmp(out_simd.data(), out_scalar.data(),
                        sizeof(float) * static_cast<size_t>(n)),
            0);
  kernels::simd::GemvRowsFp32(data.data(), query.data(), out_simd.data(), 0,
                              n, d);
  kernels::scalar::GemvRowsFp32(data.data(), query.data(),
                                out_scalar.data(), 0, n, d);
  EXPECT_EQ(std::memcmp(out_simd.data(), out_scalar.data(),
                        sizeof(float) * static_cast<size_t>(n)),
            0);
}

// ---------------------------------------------------------------------------
// QuantizedTable determinism + storage accounting. Runs under TSan.
// ---------------------------------------------------------------------------

TEST(QuantTableTest, BuildAndScoresAreIdenticalAcrossSimdAndThreads) {
  const int64_t n = 1500, d = 24;  // > one ParallelFor grain per thread
  const std::vector<float> data = RandomRows(n, d, 11);
  const std::vector<float> query = RandomRows(1, d, 12);

  for (const QuantMode mode : {QuantMode::kBf16, QuantMode::kInt8}) {
    QuantizedTable reference;
    std::vector<float> ref_scores(static_cast<size_t>(n));
    {
      ScopedSimd simd(true);
      ScopedNumThreads threads(1);
      reference.Build(data.data(), n, d, mode);
      reference.ScoreAll(query.data(), ref_scores.data());
    }
    const struct {
      bool simd;
      int threads;
    } variants[] = {{true, 4}, {false, 1}, {false, 4}};
    for (const auto& v : variants) {
      ScopedSimd simd(v.simd);
      ScopedNumThreads threads(v.threads);
      QuantizedTable table;
      table.Build(data.data(), n, d, mode);
      EXPECT_EQ(table.Fingerprint(), reference.Fingerprint())
          << "mode " << QuantModeName(mode) << " simd=" << v.simd
          << " threads=" << v.threads;
      std::vector<float> scores(static_cast<size_t>(n));
      table.ScoreAll(query.data(), scores.data());
      EXPECT_EQ(std::memcmp(scores.data(), ref_scores.data(),
                            sizeof(float) * static_cast<size_t>(n)),
                0)
          << "mode " << QuantModeName(mode) << " simd=" << v.simd
          << " threads=" << v.threads;
    }
  }
}

TEST(QuantTableTest, ScoreRowsMatchesScoreAllBitwise) {
  const int64_t n = 200, d = 16;
  const std::vector<float> data = RandomRows(n, d, 21);
  const std::vector<float> query = RandomRows(1, d, 22);
  const std::vector<int64_t> ids = {0, 3, 7, 42, 199, 100};

  for (const QuantMode mode :
       {QuantMode::kFp32, QuantMode::kBf16, QuantMode::kInt8}) {
    QuantizedTable table;
    table.Build(data.data(), n, d, mode);
    std::vector<float> all(static_cast<size_t>(n));
    table.ScoreAll(query.data(), all.data());
    std::vector<float> subset(ids.size());
    table.ScoreRows(query.data(), ids.data(),
                    static_cast<int64_t>(ids.size()), subset.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(FloatBits(subset[i]),
                FloatBits(all[static_cast<size_t>(ids[i])]))
          << "mode " << QuantModeName(mode) << " id " << ids[i];
    }
  }
}

TEST(QuantTableTest, StorageBytesMatchTheFormatMath) {
  const int64_t n = 64, d = 32;
  const std::vector<float> data = RandomRows(n, d, 31);
  QuantizedTable bf16, int8;
  bf16.Build(data.data(), n, d, QuantMode::kBf16);
  int8.Build(data.data(), n, d, QuantMode::kInt8);
  EXPECT_EQ(bf16.storage_bytes(), n * d * 2);
  EXPECT_EQ(int8.storage_bytes(), n * d + n * 4);  // codes + fp32 scales
  EXPECT_EQ(bf16.fp32_bytes(), n * d * 4);
  // The PR's footprint deliverables: exactly 2x for bf16, 4d/(d+4)
  // for int8 (3.56x at d=32).
  EXPECT_GE(static_cast<double>(int8.fp32_bytes()) /
                static_cast<double>(int8.storage_bytes()),
            3.5);
}

// ---------------------------------------------------------------------------
// QuantizedEmbeddingView over the real models.
// ---------------------------------------------------------------------------

class QuantViewTest : public ::testing::Test {
 protected:
  QuantViewTest()
      : dataset_(TinyDataset(12, 6, 40, 21)),
        graphs_(BuildGraphInputs(dataset_)) {}

  std::unique_ptr<Gbgcn> MakeGbgcn(uint64_t seed) const {
    Rng rng(seed);
    auto model =
        std::make_unique<Gbgcn>(graphs_, /*dim=*/8, /*n_layers=*/2, &rng);
    model->Refresh();
    return model;
  }

  std::unique_ptr<LightGcn> MakeLightGcn(uint64_t seed) const {
    Rng rng(seed);
    auto model =
        std::make_unique<LightGcn>(graphs_, /*dim=*/8, /*n_layers=*/2, &rng);
    model->Refresh();
    return model;
  }

  static std::vector<double> Fp32ScoreAll(RecModel* model, int64_t u) {
    NoGradScope no_grad;
    const Var column = model->ScoreAAll(u);
    std::vector<double> scores(static_cast<size_t>(column.rows()));
    for (int64_t r = 0; r < column.rows(); ++r) {
      scores[static_cast<size_t>(r)] = column.value().at(r, 0);
    }
    return scores;
  }

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
};

TEST_F(QuantViewTest, AgreesWithFp32OnViewImplementingModels) {
  const auto check_model = [this](RecModel* model) {
    for (const QuantMode mode : {QuantMode::kBf16, QuantMode::kInt8}) {
      const auto view = QuantizedEmbeddingView::BuildFor(*model, mode);
      ASSERT_NE(view, nullptr) << model->name();
      EXPECT_EQ(view->mode(), mode);
      for (int64_t u = 0; u < graphs_.n_users; ++u) {
        const std::vector<double> ref = Fp32ScoreAll(model, u);
        std::vector<double> quant;
        ASSERT_TRUE(view->ScoreAAll(*model, u, &quant));
        ASSERT_EQ(quant.size(), ref.size());
        // Quantized scores are approximations, not bitwise copies —
        // bound the absolute error by the encodings' resolution (the
        // quant-gate enforces the ranking-agreement deliverable at
        // scale; this is the sanity bound that catches a broken
        // decode, not a tightness claim).
        double max_abs = 0.0;
        for (const double s : ref) max_abs = std::max(max_abs, std::fabs(s));
        const double tol = std::max(1e-6, 0.1 * max_abs);
        for (size_t i = 0; i < ref.size(); ++i) {
          EXPECT_NEAR(quant[i], ref[i], tol)
              << model->name() << " " << QuantModeName(mode) << " u=" << u
              << " item=" << i;
        }
      }
    }
  };
  const std::unique_ptr<Gbgcn> gbgcn = MakeGbgcn(5);
  const std::unique_ptr<LightGcn> lightgcn = MakeLightGcn(6);
  check_model(gbgcn.get());
  check_model(lightgcn.get());
}

TEST_F(QuantViewTest, CandidateScoresAreBitwiseRowsOfScoreAAll) {
  const std::unique_ptr<Gbgcn> model = MakeGbgcn(5);
  const auto view = QuantizedEmbeddingView::BuildFor(*model, QuantMode::kInt8);
  ASSERT_NE(view, nullptr);
  const std::vector<int64_t> ids = {0, 2, 5, 3};
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    std::vector<double> all, subset;
    ASSERT_TRUE(view->ScoreAAll(*model, u, &all));
    ASSERT_TRUE(view->ScoreACandidates(*model, u, ids, &subset));
    ASSERT_EQ(subset.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(subset[i], all[static_cast<size_t>(ids[i])]) << "u=" << u;
    }
  }
}

TEST_F(QuantViewTest, CoversTaskBWhenTheModelExposesAPartView) {
  const std::unique_ptr<LightGcn> model = MakeLightGcn(6);
  const auto view = QuantizedEmbeddingView::BuildFor(*model, QuantMode::kBf16);
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->has_part_table());
  EXPECT_EQ(view->part_table().n(), graphs_.n_users);
  std::vector<double> scores;
  ASSERT_TRUE(view->ScoreBAll(*model, /*u=*/1, /*item=*/2, &scores));
  EXPECT_EQ(static_cast<int64_t>(scores.size()), graphs_.n_users);
  EXPECT_GT(view->model_bytes(), 0);
  EXPECT_GT(view->fp32_bytes(), view->model_bytes());
}

TEST_F(QuantViewTest, MgbrExposesNoViewAndBuildReturnsNull) {
  MgbrConfig config = MgbrConfig::Variant("MGBR");
  config.dim = 4;
  config.n_experts = 2;
  config.aux_negatives = 2;
  Rng rng(3);
  MgbrModel model(graphs_, config, &rng);
  model.Refresh();
  EXPECT_EQ(QuantizedEmbeddingView::BuildFor(model, QuantMode::kBf16),
            nullptr);
  EXPECT_EQ(QuantizedEmbeddingView::BuildFor(model, QuantMode::kInt8),
            nullptr);
}

// ---------------------------------------------------------------------------
// Shared tie-order contract: TopKIndices (both selection paths) and
// Histogram::Quantile on constant input.
// ---------------------------------------------------------------------------

TEST(TieOrderTest, TopKIndicesBreaksTiesByIndexOnBothSelectionPaths) {
  // partial_sort path (n < kTopKHeapMinN): constant scores must come
  // back as 0..k-1 — the (score desc, index asc) total order.
  {
    const std::vector<double> scores(100, 1.25);
    const std::vector<int64_t> top = TopKIndices(scores, 10);
    ASSERT_EQ(top.size(), 10u);
    for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(top[static_cast<size_t>(i)], i);
  }
  // Bounded-heap path (n >= kTopKHeapMinN, k <= n / kTopKHeapMaxFrac):
  // the same order must hold — the heap's replace-only-if-better rule
  // must not admit a later equal-score index.
  {
    const std::vector<double> scores(static_cast<size_t>(kTopKHeapMinN),
                                     -3.5);
    const std::vector<int64_t> top = TopKIndices(scores, 16);
    ASSERT_EQ(top.size(), 16u);
    for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(top[static_cast<size_t>(i)], i);
  }
  // Mixed ties: equal scores order by index, across both paths.
  for (const int64_t n : {int64_t{64}, kTopKHeapMinN}) {
    std::vector<double> scores(static_cast<size_t>(n), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      scores[static_cast<size_t>(i)] = static_cast<double>(i % 4);
    }
    // Score 3 wins everywhere; equal-score indices come back ascending.
    const std::vector<int64_t> top = TopKIndices(scores, 8);
    ASSERT_EQ(top.size(), 8u);
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(top[i], static_cast<int64_t>(3 + 4 * i))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(TieOrderTest, HistogramQuantileOnConstantInputStaysInItsBucket) {
  Histogram h("quant_test.tie_order", /*first_bound=*/0.001, /*growth=*/2.0,
              /*n_buckets=*/30);
  for (int i = 0; i < 100; ++i) h.Observe(5.0);
  // Locate the containing bucket [lo, hi).
  const std::vector<double>& bounds = h.bounds();
  double lo = 0.0, hi = bounds.back();
  for (size_t b = 0; b < bounds.size(); ++b) {
    if (5.0 <= bounds[b]) {
      hi = bounds[b];
      lo = b > 0 ? bounds[b - 1] : 0.0;
      break;
    }
  }
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double value = h.Quantile(q);
    EXPECT_GE(value, lo) << "q=" << q;
    EXPECT_LE(value, hi) << "q=" << q;
    EXPECT_GE(value, prev) << "quantiles must be monotone, q=" << q;
    prev = value;
  }
}

// ---------------------------------------------------------------------------
// Server integration. Runs under TSan.
// ---------------------------------------------------------------------------

class ServeQuantTest : public QuantViewTest {
 protected:
  ModelPool::Factory GbgcnFactory(uint64_t seed) const {
    return [this, seed] {
      return std::unique_ptr<RecModel>(MakeGbgcn(seed));
    };
  }

  static serve::PoolConfig Quantized(QuantMode mode) {
    serve::PoolConfig config;
    config.quant = mode;
    return config;
  }

  static Response Submit(Server* server, TaskKind task, int64_t user,
                         int64_t item, int64_t k) {
    Request req;
    req.task = task;
    req.user = user;
    req.item = item;
    req.k = k;
    return server->Submit(req).get();
  }

  /// What a quantized response must be, computed directly from the
  /// view with no server in the loop.
  static Response ViewScore(const QuantizedEmbeddingView& view,
                            const RecModel& model, const Request& req) {
    std::vector<double> scores;
    EXPECT_TRUE(req.task == TaskKind::kTopKItems
                    ? view.ScoreAAll(model, req.user, &scores)
                    : view.ScoreBAll(model, req.user, req.item, &scores));
    Response expected;
    expected.code = ResponseCode::kOk;
    expected.top_k = TopKIndices(scores, req.k);
    for (int64_t i : expected.top_k) {
      expected.scores.push_back(scores[static_cast<size_t>(i)]);
    }
    return expected;
  }
};

TEST_F(ServeQuantTest, ServedScoresAreBitwiseTheViewsAndCounted) {
  ModelPool pool(GbgcnFactory(5), Quantized(QuantMode::kInt8));
  pool.Install(MakeGbgcn(5), "v1");
  Server server(&pool, ServerConfig{});

  const std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  ASSERT_NE(version, nullptr);
  ASSERT_NE(version->quant, nullptr);
  EXPECT_EQ(version->quant->mode(), QuantMode::kInt8);

  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    Request req;
    req.task = TaskKind::kTopKItems;
    req.user = u;
    req.k = 3;
    const Response got = Submit(&server, req.task, req.user, 0, req.k);
    const Response want = ViewScore(*version->quant, *version->model, req);
    ASSERT_EQ(got.code, ResponseCode::kOk) << "u=" << u;
    EXPECT_EQ(got.top_k, want.top_k) << "u=" << u;
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (size_t i = 0; i < want.scores.size(); ++i) {
      EXPECT_EQ(got.scores[i], want.scores[i]) << "u=" << u << " i=" << i;
    }
  }
  EXPECT_GT(server.stats().quant_scored, 0);
  EXPECT_NE(server.VarzJson(false).find("\"quant_mode\":\"int8\""),
            std::string::npos);
}

TEST_F(ServeQuantTest, HotSwapNeverServesAStaleQuantizedTable) {
  ModelPool pool(GbgcnFactory(5), Quantized(QuantMode::kBf16));
  pool.Install(MakeGbgcn(5), "v1");
  ServerConfig config;
  config.cache_capacity = 64;
  Server server(&pool, config);

  const std::shared_ptr<ModelPool::Version> v1 = pool.Acquire();
  ASSERT_NE(v1->quant, nullptr);
  const Response before = Submit(&server, TaskKind::kTopKItems, 0, 0, 3);
  ASSERT_EQ(before.code, ResponseCode::kOk);
  EXPECT_EQ(before.version, v1->id);

  pool.Install(MakeGbgcn(9), "v2");
  const std::shared_ptr<ModelPool::Version> v2 = pool.Acquire();
  ASSERT_NE(v2->quant, nullptr);
  // Different parameters must quantize to a different table — and the
  // swap must republish, not mutate: v1's table is untouched.
  EXPECT_NE(v2->quant->Fingerprint(), v1->quant->Fingerprint());

  Request req;
  req.task = TaskKind::kTopKItems;
  req.user = 0;
  req.k = 3;
  const Response after = Submit(&server, req.task, req.user, 0, req.k);
  ASSERT_EQ(after.code, ResponseCode::kOk);
  EXPECT_EQ(after.version, v2->id);
  const Response want = ViewScore(*v2->quant, *v2->model, req);
  EXPECT_EQ(after.top_k, want.top_k);
  ASSERT_EQ(after.scores.size(), want.scores.size());
  for (size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(after.scores[i], want.scores[i]) << "i=" << i;
  }
}

TEST_F(ServeQuantTest, MgbrFallsBackToFp32AndCountsNothing) {
  MgbrConfig mconfig = MgbrConfig::Variant("MGBR");
  mconfig.dim = 4;
  mconfig.n_experts = 2;
  mconfig.aux_negatives = 2;
  const auto make_mgbr = [this, &mconfig](uint64_t seed) {
    Rng rng(seed);
    auto model = std::make_unique<MgbrModel>(graphs_, mconfig, &rng);
    model->Refresh();
    return model;
  };
  ModelPool pool(
      [&make_mgbr] { return std::unique_ptr<RecModel>(make_mgbr(3)); },
      Quantized(QuantMode::kInt8));
  pool.Install(make_mgbr(3), "mgbr");
  Server server(&pool, ServerConfig{});

  // MGBR has no retrieval view, so the version carries no quantized
  // table and responses are the fp32 reference bitwise.
  const std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  EXPECT_EQ(version->quant, nullptr);
  const std::unique_ptr<MgbrModel> reference = make_mgbr(3);
  NoGradScope no_grad;
  const Var column = reference->ScoreAAll(1);
  std::vector<double> scores(static_cast<size_t>(column.rows()));
  for (int64_t r = 0; r < column.rows(); ++r) {
    scores[static_cast<size_t>(r)] = column.value().at(r, 0);
  }
  const std::vector<int64_t> want_top = TopKIndices(scores, 3);

  const Response got = Submit(&server, TaskKind::kTopKItems, 1, 0, 3);
  ASSERT_EQ(got.code, ResponseCode::kOk);
  EXPECT_EQ(got.top_k, want_top);
  for (size_t i = 0; i < got.top_k.size(); ++i) {
    EXPECT_EQ(got.scores[i],
              scores[static_cast<size_t>(got.top_k[i])]);
  }
  EXPECT_EQ(server.stats().quant_scored, 0);
}

TEST_F(ServeQuantTest, Fp32DefaultBuildsNoViewAndStaysReference) {
  ModelPool pool(GbgcnFactory(5));
  pool.Install(MakeGbgcn(5), "v1");
  Server server(&pool, ServerConfig{});  // pool quant defaults to kFp32

  const std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  EXPECT_EQ(version->quant, nullptr);

  const std::unique_ptr<Gbgcn> reference = MakeGbgcn(5);
  NoGradScope no_grad;
  const Var column = reference->ScoreAAll(2);
  std::vector<double> scores(static_cast<size_t>(column.rows()));
  for (int64_t r = 0; r < column.rows(); ++r) {
    scores[static_cast<size_t>(r)] = column.value().at(r, 0);
  }
  const Response got = Submit(&server, TaskKind::kTopKItems, 2, 0, 3);
  ASSERT_EQ(got.code, ResponseCode::kOk);
  EXPECT_EQ(got.top_k, TopKIndices(scores, 3));
  for (size_t i = 0; i < got.top_k.size(); ++i) {
    EXPECT_EQ(got.scores[i], scores[static_cast<size_t>(got.top_k[i])]);
  }
  EXPECT_EQ(server.stats().quant_scored, 0);
}

}  // namespace
}  // namespace mgbr
