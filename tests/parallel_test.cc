// Tests of the thread-pool substrate (common/parallel.h) and of the
// determinism contract of the parallel kernels: for every thread
// count, matmul / SpMM / sampler results are bit-identical, because
// each output row is owned by exactly one chunk and sampling streams
// are derived per chunk, not per thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "graph/csr_matrix.h"
#include "graph/graph.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace mgbr {
namespace {

bool BitEqual(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// ---------------------------------------------------------------------------
// ThreadPool basics.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.n_workers(), 4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ShutdownJoinsCleanlyAndPoolsAreReusable) {
  // Construct/destroy repeatedly; the destructor must join all workers
  // even when the queue was never used or still has pending tasks
  // in-flight at shutdown time.
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&] { count.fetch_add(1); });
      }
    }  // ~ThreadPool drains and joins
    EXPECT_EQ(count.load(), 50);
  }
  ThreadPool empty(0);
  EXPECT_EQ(empty.n_workers(), 0);
}

// ---------------------------------------------------------------------------
// ParallelFor semantics.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedNumThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  ScopedNumThreads threads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(0, 3, 100, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ChunkDecompositionIgnoresThreadCount) {
  auto record = [](std::vector<std::pair<int64_t, int64_t>>* chunks) {
    std::mutex mu;
    ParallelForChunked(0, 103, 10,
                       [&](int64_t chunk, int64_t lo, int64_t hi) {
                         std::lock_guard<std::mutex> lock(mu);
                         chunks->emplace_back(chunk, hi - lo);
                         (void)lo;
                       });
  };
  std::vector<std::pair<int64_t, int64_t>> serial, parallel;
  {
    ScopedNumThreads threads(1);
    record(&serial);
  }
  {
    ScopedNumThreads threads(4);
    record(&parallel);
  }
  std::sort(serial.begin(), serial.end());
  std::sort(parallel.begin(), parallel.end());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), 11u);  // ceil(103 / 10)
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 3,
                    [](int64_t lo, int64_t) {
                      if (lo >= 30) throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedNumThreads threads(4);
  std::vector<std::atomic<int>> hits(256);
  ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Inner region must detect nesting and run serially.
      ParallelFor(0, 16, 1, [&, i](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) {
          hits[static_cast<size_t>(i * 16 + j)]++;
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SetNumThreadsClampsToOne) {
  SetNumThreads(-3);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(2);
  EXPECT_EQ(NumThreads(), 2);
  SetNumThreads(1);
}

// ---------------------------------------------------------------------------
// Bit-exact equivalence across thread counts.
// ---------------------------------------------------------------------------

struct MatmulResult {
  Tensor value, da, db;
};

MatmulResult RunMatmul(int threads) {
  ScopedNumThreads scoped(threads);
  Rng rng(11);
  Var a(GaussianInit(67, 43, &rng), true);
  Var b(GaussianInit(43, 51, &rng), true);
  Var loss = Sum(MatMul(a, b));
  loss.Backward();
  return {MatMul(a, b).value(), a.grad(), b.grad()};
}

TEST(ParallelDeterminismTest, MatmulForwardBackwardBitExact) {
  MatmulResult serial = RunMatmul(1);
  MatmulResult parallel = RunMatmul(4);
  EXPECT_TRUE(BitEqual(serial.value, parallel.value));
  EXPECT_TRUE(BitEqual(serial.da, parallel.da));
  EXPECT_TRUE(BitEqual(serial.db, parallel.db));
}

struct SpmmResult {
  Tensor fwd, bwd;
};

SpmmResult RunSpmm(int threads) {
  ScopedNumThreads scoped(threads);
  Rng rng(13);
  const int64_t n = 300;
  std::vector<Coo> entries;
  for (int e = 0; e < 3000; ++e) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(n)),
                       static_cast<int64_t>(rng.UniformInt(n)),
                       static_cast<float>(rng.Uniform())});
  }
  CsrMatrix m = CsrMatrix::FromCoo(n, n, std::move(entries));
  Tensor x = GaussianInit(n, 24, &rng);
  return {m.Multiply(x), m.TransposeMultiply(x)};
}

TEST(ParallelDeterminismTest, SpmmForwardBackwardBitExact) {
  SpmmResult serial = RunSpmm(1);
  SpmmResult parallel = RunSpmm(4);
  EXPECT_TRUE(BitEqual(serial.fwd, parallel.fwd));
  EXPECT_TRUE(BitEqual(serial.bwd, parallel.bwd));
}

TEST(ParallelDeterminismTest, TransposeMultiplyMatchesDenseTranspose) {
  Rng rng(17);
  const int64_t rows = 40, cols = 31;
  std::vector<Coo> entries;
  for (int e = 0; e < 200; ++e) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(rows)),
                       static_cast<int64_t>(rng.UniformInt(cols)),
                       static_cast<float>(rng.Uniform())});
  }
  CsrMatrix m = CsrMatrix::FromCoo(rows, cols, std::move(entries));
  Tensor x = GaussianInit(rows, 8, &rng);
  Tensor got = m.TransposeMultiply(x);
  // Reference: dense Aᵀ @ x.
  Tensor dense = m.ToDense();
  Tensor expect(cols, 8);
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        acc += static_cast<double>(dense.at(r, c)) * x.at(r, j);
      }
      expect.at(c, j) = static_cast<float>(acc);
    }
  }
  EXPECT_TRUE(AllClose(got, expect, 1e-4));
}

TEST(ParallelDeterminismTest, ConcurrentFirstTransposeMultiplyIsSafe) {
  // The transpose layout is built by the first TransposeMultiply; here
  // every thread makes that first call at once, on a fresh matrix, and
  // each must read the one finished layout.
  Rng rng(19);
  const int64_t rows = 200, cols = 150;
  std::vector<Coo> entries;
  for (int e = 0; e < 2000; ++e) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(rows)),
                       static_cast<int64_t>(rng.UniformInt(cols)),
                       static_cast<float>(rng.Uniform())});
  }
  const Tensor x = GaussianInit(rows, 8, &rng);
  const Tensor want = CsrMatrix::FromCoo(rows, cols, entries)
                          .TransposeMultiply(x);
  const CsrMatrix m = CsrMatrix::FromCoo(rows, cols, std::move(entries));
  constexpr int kThreads = 8;
  std::vector<Tensor> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<size_t>(t)] = m.TransposeMultiply(x);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tensor& g : got) EXPECT_TRUE(BitEqual(g, want));
}

class SamplerDeterminismTest : public ::testing::Test {
 protected:
  SamplerDeterminismTest() {
    BeibeiSimConfig sim;
    sim.n_users = 120;
    sim.n_items = 60;
    sim.n_groups = 400;
    sim.seed = 7;
    data_ = GenerateBeibeiSim(sim);
    index_ = std::make_unique<InteractionIndex>(data_);
    sampler_ = std::make_unique<TrainingSampler>(data_, index_.get());
  }

  GroupBuyingDataset data_;
  std::unique_ptr<InteractionIndex> index_;
  std::unique_ptr<TrainingSampler> sampler_;
};

TEST_F(SamplerDeterminismTest, EpochBatchesBitExactAcrossThreadCounts) {
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Rng rng(99);
    auto a = sampler_->EpochBatchesA(64, 2, &rng);
    auto b = sampler_->EpochBatchesB(64, 2, &rng);
    auto aux = sampler_->EpochAuxBatches(32, 3, &rng);
    return std::make_tuple(a, b, aux);
  };
  auto [a1, b1, x1] = run(1);
  auto [a4, b4, x4] = run(4);

  ASSERT_EQ(a1.size(), a4.size());
  for (size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i].users, a4[i].users);
    EXPECT_EQ(a1[i].pos_items, a4[i].pos_items);
    EXPECT_EQ(a1[i].neg_items, a4[i].neg_items);
  }
  ASSERT_EQ(b1.size(), b4.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].users, b4[i].users);
    EXPECT_EQ(b1[i].items, b4[i].items);
    EXPECT_EQ(b1[i].pos_parts, b4[i].pos_parts);
    EXPECT_EQ(b1[i].neg_parts, b4[i].neg_parts);
  }
  ASSERT_EQ(x1.size(), x4.size());
  for (size_t i = 0; i < x1.size(); ++i) {
    EXPECT_EQ(x1[i].users, x4[i].users);
    EXPECT_EQ(x1[i].items, x4[i].items);
    EXPECT_EQ(x1[i].parts, x4[i].parts);
  }
}

TEST_F(SamplerDeterminismTest, NegativesStillRespectExclusionRules) {
  ScopedNumThreads scoped(4);
  Rng rng(5);
  for (const TaskABatch& b : sampler_->EpochBatchesA(128, 2, &rng)) {
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_FALSE(index_->UserBoughtItem(b.users[i], b.neg_items[i]));
    }
  }
  for (const TaskBBatch& b : sampler_->EpochBatchesB(128, 2, &rng)) {
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_NE(b.neg_parts[i], b.users[i]);
      EXPECT_FALSE(index_->InGroup(b.users[i], b.items[i], b.neg_parts[i]));
    }
  }
}

TEST_F(SamplerDeterminismTest, EvalMetricsBitExactAcrossThreadCounts) {
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Rng rng(3);
    auto instances = BuildEvalInstancesA(data_, *index_, 9, &rng, 50);
    TaskAScorer scorer = [](int64_t u, const std::vector<int64_t>& items) {
      std::vector<double> out;
      out.reserve(items.size());
      for (int64_t i : items) {
        out.push_back(std::sin(static_cast<double>(u * 131 + i * 17)));
      }
      return out;
    };
    return EvaluateTaskA(instances, scorer, 10);
  };
  RankingReport serial = run(1);
  RankingReport parallel = run(4);
  EXPECT_EQ(serial.n_instances, parallel.n_instances);
  EXPECT_EQ(serial.mrr, parallel.mrr);
  EXPECT_EQ(serial.ndcg, parallel.ndcg);
  EXPECT_EQ(serial.hit, parallel.hit);
}

// Elementwise autograd ops route through ParallelFor too; a quick
// end-to-end check over a composite expression.
TEST(ParallelDeterminismTest, ElementwiseChainBitExact) {
  auto run = [](int threads) {
    ScopedNumThreads scoped(threads);
    Rng rng(21);
    Var a(GaussianInit(130, 140, &rng), true);
    Var b(GaussianInit(130, 140, &rng), true);
    Var loss = Sum(Mul(Sigmoid(a), Tanh(Mul(a, b))));
    loss.Backward();
    return std::make_pair(a.grad(), b.grad());
  };
  auto [da1, db1] = run(1);
  auto [da4, db4] = run(4);
  EXPECT_TRUE(BitEqual(da1, da4));
  EXPECT_TRUE(BitEqual(db1, db4));
}

}  // namespace
}  // namespace mgbr
