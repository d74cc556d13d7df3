// Tests for the serving layer: ModelPool double-buffered versions
// (checkpoint load, atomic swap, failed-load isolation), the batching
// Server (correctness vs direct scoring, coalescing, the
// per-version score cache, backpressure and deadline shedding, graceful
// drain) and the zero-downtime swap contract — every response produced
// while checkpoints are hot-swapped mid-traffic is bitwise attributable
// to exactly one version. ServeServerTest / ModelPoolTest /
// ServeSwapTest run under TSan in CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/mgbr.h"
#include "eval/metrics.h"
#include "models/gbgcn.h"
#include "models/graph_inputs.h"
#include "retrieval/two_stage.h"
#include "serve/model_pool.h"
#include "serve/server.h"
#include "tensor/variable.h"
#include "tests/test_util.h"
#include "train/checkpoint.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;
using mgbr::testing::TinyDataset;
using serve::ModelPool;
using serve::Request;
using serve::Response;
using serve::ResponseCode;
using serve::Server;
using serve::ServerConfig;
using serve::ServerStats;
using serve::TaskKind;

/// Tiny dataset + a factory for shape-compatible MGBR models. Different
/// seeds give different parameters (and therefore different scores),
/// which is what the version-attribution tests key on.
class ServeTestBase : public ::testing::Test {
 protected:
  ServeTestBase()
      : dataset_(TinyDataset(12, 6, 40, 21)),
        graphs_(BuildGraphInputs(dataset_)) {}

  std::unique_ptr<MgbrModel> MakeModel(uint64_t seed) const {
    MgbrConfig config = MgbrConfig::Variant("MGBR");
    config.dim = 4;
    config.n_experts = 2;
    config.aux_negatives = 2;
    Rng rng(seed);
    auto model = std::make_unique<MgbrModel>(graphs_, config, &rng);
    model->Refresh();
    return model;
  }

  ModelPool::Factory Factory(uint64_t seed) const {
    return [this, seed] {
      return std::unique_ptr<RecModel>(MakeModel(seed));
    };
  }

  /// GBGCN: a dot-product scorer with a retrieval view, so its versions
  /// can carry an ANN index and a quantized table.
  std::unique_ptr<Gbgcn> MakeGbgcn(uint64_t seed) const {
    Rng rng(seed);
    auto model =
        std::make_unique<Gbgcn>(graphs_, /*dim=*/8, /*n_layers=*/2, &rng);
    model->Refresh();
    return model;
  }

  ModelPool::Factory GbgcnFactory(uint64_t seed) const {
    return [this, seed] {
      return std::unique_ptr<RecModel>(MakeGbgcn(seed));
    };
  }

  /// Pool config that builds an ANN index into every version.
  static serve::PoolConfig TwoStage() {
    serve::PoolConfig config;
    config.retrieval.enabled = true;
    return config;
  }

  /// Reference result computed directly against `model`, bypassing the
  /// server: the batching/caching layer must reproduce this exactly.
  static Response DirectScore(RecModel* model, const Request& req) {
    NoGradScope no_grad;
    const Var column = req.task == TaskKind::kTopKItems
                           ? model->ScoreAAll(req.user)
                           : model->ScoreBAll(req.user, req.item);
    std::vector<double> scores(static_cast<size_t>(column.rows()));
    for (int64_t r = 0; r < column.rows(); ++r) {
      scores[static_cast<size_t>(r)] = column.value().at(r, 0);
    }
    Response expected;
    expected.code = ResponseCode::kOk;
    expected.top_k = TopKIndices(scores, req.k);
    for (int64_t i : expected.top_k) {
      expected.scores.push_back(scores[static_cast<size_t>(i)]);
    }
    return expected;
  }

  /// Occupies the lone worker of `server`: a delay on the first scored
  /// key holds it for `hold_ms` while it scores a blocker request, and
  /// this returns (with the blocker's future) once the worker has taken
  /// the blocker off the queue. Requests submitted next wait in the
  /// queue, and the worker picks them up together when the delay ends.
  static std::future<Response> OccupyWorker(Server* server,
                                            int64_t hold_ms = 200) {
    fault::Injection delay;
    delay.kind = fault::Injection::Kind::kDelay;
    delay.match = "serve.score";
    delay.ms = hold_ms;
    delay.every = std::numeric_limits<int64_t>::max();  // first key only
    fault::Install(delay);
    Request blocker;
    blocker.task = TaskKind::kTopKItems;
    blocker.user = 0;
    std::future<Response> future = server->Submit(blocker);
    while (server->queue_depth() > 0) std::this_thread::yield();
    return future;
  }

  /// Flips one bit mid-file: the checkpoint's per-section CRC32
  /// catches it.
  static void FlipByteMidFile(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 0);
    f.seekg(size / 2);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x10;
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  void TearDown() override { fault::Clear(); }

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
};

class ModelPoolTest : public ServeTestBase {};
class ServeServerTest : public ServeTestBase {};
class ServeSwapTest : public ServeTestBase {};
/// Two-stage retrieval through the server. Uses GBGCN (a dot-product
/// scorer with a retrieval view); on the tiny catalogue the default
/// nprobe exceeds the auto nlist, so the ANN stage is exhaustive and
/// two-stage responses must be BITWISE equal to the brute path — any
/// divergence (including a stale index after a hot swap) is an error,
/// not a recall shortfall. Runs under TSan in CI.
class ServeRetrievalTest : public ServeTestBase {};
// Observability wiring (exporter / healthz / flight recorder). Runs
// under TSan in CI: the exporter thread reads the counts while the
// workers write them.
class ServeObsTest : public ServeTestBase {};

TEST_F(ModelPoolTest, InstallAssignsMonotonicIdsAndPinsSnapshots) {
  ModelPool pool(Factory(3));
  EXPECT_EQ(pool.current_id(), 0);
  EXPECT_EQ(pool.Acquire(), nullptr);

  EXPECT_EQ(pool.Install(MakeModel(1), "a"), 1);
  std::shared_ptr<ModelPool::Version> v1 = pool.Acquire();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->id, 1);
  EXPECT_EQ(v1->source, "a");

  EXPECT_EQ(pool.Install(MakeModel(2), "b"), 2);
  EXPECT_EQ(pool.current_id(), 2);
  EXPECT_EQ(pool.swap_count(), 2);
  // The old snapshot stays alive and serviceable after the swap.
  EXPECT_EQ(v1->id, 1);
  NoGradScope no_grad;
  EXPECT_EQ(v1->model->ScoreAAll(0).rows(), graphs_.n_items);
}

TEST_F(ModelPoolTest, LoadVersionRestoresCheckpointBitwise) {
  std::unique_ptr<MgbrModel> source = MakeModel(1);
  const ScopedTempDir temp("serve_load");
  const std::string path = temp.File("load.mgbr");
  ASSERT_TRUE(SaveParameters(source->Parameters(), path).ok());

  // The factory seeds differently: every parameter must come from the
  // checkpoint, not from the factory's init.
  ModelPool pool(Factory(99));
  ASSERT_TRUE(pool.LoadVersion(path).ok());
  std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->source, path);

  NoGradScope no_grad;
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    // Keep the Vars alive: value() references the node they own.
    const Var got_var = version->model->ScoreAAll(u);
    const Var want_var = source->ScoreAAll(u);
    const Tensor& got = got_var.value();
    const Tensor& want = want_var.value();
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<size_t>(want.numel())),
              0)
        << "user " << u;
  }
}

TEST_F(ModelPoolTest, FailedLoadLeavesServedVersionUntouched) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  EXPECT_FALSE(pool.LoadVersion("/nonexistent/ckpt.mgbr").ok());
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.swap_count(), 1);
}

TEST_F(ModelPoolTest, LoadLatestUsesNewestVerifyingCheckpoint) {
  const ScopedTempDir temp("serve_latest");
  const std::string dir = temp.File("latest");
  CheckpointManager manager(dir);
  std::unique_ptr<MgbrModel> old_model = MakeModel(1);
  std::unique_ptr<MgbrModel> new_model = MakeModel(2);
  CheckpointWriteRequest write;
  std::vector<Var> old_params = old_model->Parameters();
  write.params = &old_params;
  ASSERT_TRUE(manager.Save(write, 1).ok());
  std::vector<Var> new_params = new_model->Parameters();
  write.params = &new_params;
  ASSERT_TRUE(manager.Save(write, 2).ok());

  ModelPool pool(Factory(99));
  ASSERT_TRUE(pool.LoadLatest(&manager).ok());
  std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  ASSERT_NE(version, nullptr);

  NoGradScope no_grad;
  const Var got_var = version->model->ScoreAAll(0);
  const Var want_var = new_model->ScoreAAll(0);
  const Tensor& got = got_var.value();
  const Tensor& want = want_var.value();
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.numel())),
            0);
}

TEST_F(ModelPoolTest, FailedLoadLatestIsCountedAndEventLogged) {
  const ScopedTempDir temp("serve_latest_corrupt");
  CheckpointManager manager(temp.File("latest"));
  std::unique_ptr<MgbrModel> source = MakeModel(2);
  std::vector<Var> params = source->Parameters();
  CheckpointWriteRequest write;
  write.params = &params;
  ASSERT_TRUE(manager.Save(write, 1).ok());
  FlipByteMidFile(manager.PathFor(1));

  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  // The only checkpoint is corrupt, so the restore fails; like a failed
  // LoadVersion, that is a rejected swap on the audit trail.
  EXPECT_FALSE(pool.LoadLatest(&manager).ok());
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.rejected_count(), 1);
  const std::vector<ModelPool::SwapEvent> events = pool.SwapEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, ModelPool::SwapEvent::Kind::kReject);
  EXPECT_EQ(events[1].source, manager.dir());
  EXPECT_FALSE(events[1].detail.empty());
}

TEST_F(ModelPoolTest, LoadedVersionsRefreshWithoutATape) {
  // Nothing runs backward through a served version, so LoadVersion and
  // LoadLatest refresh it without a tape; its scores keep the bits of
  // a copy refreshed with the tape on.
  Rng rng(5);
  Gbgcn source(graphs_, /*dim=*/8, /*n_layers=*/2, &rng);
  const ScopedTempDir temp("serve_notape");
  const std::string path = temp.File("gbgcn.mgbr");
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());
  CheckpointManager manager(temp.File("latest"));
  std::vector<Var> params = source.Parameters();
  CheckpointWriteRequest write;
  write.params = &params;
  ASSERT_TRUE(manager.Save(write, 1).ok());

  source.Refresh();
  const std::vector<int64_t> users = {0, 3, 7, 11, 3};
  const std::vector<int64_t> items = {1, 5, 0, 2, 4};
  const Var want = source.ScoreA(users, items);
  ASSERT_TRUE(want.requires_grad());
  const size_t bytes =
      sizeof(float) * static_cast<size_t>(want.value().numel());

  // The factory's models are not refreshed: the pool's refresh is the
  // only one.
  ModelPool::Factory factory = [this] {
    Rng init(99);
    return std::unique_ptr<RecModel>(
        std::make_unique<Gbgcn>(graphs_, 8, 2, &init));
  };
  for (const bool latest : {false, true}) {
    ModelPool pool(factory);
    ASSERT_TRUE(
        (latest ? pool.LoadLatest(&manager) : pool.LoadVersion(path)).ok());
    const Var got = pool.Acquire()->model->ScoreA(users, items);
    const char* how = latest ? "LoadLatest" : "LoadVersion";
    EXPECT_FALSE(got.requires_grad()) << how;
    ASSERT_EQ(got.value().numel(), want.value().numel()) << how;
    EXPECT_EQ(std::memcmp(got.value().data(), want.value().data(), bytes), 0)
        << how;
  }
}

TEST_F(ServeServerTest, ResponsesMatchDirectScoringBitwise) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  std::shared_ptr<ModelPool::Version> version = pool.Acquire();

  ServerConfig config;
  config.n_workers = 2;
  Server server(&pool, config);

  std::vector<Request> requests;
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    Request a;
    a.task = TaskKind::kTopKItems;
    a.user = u;
    a.k = 3;
    requests.push_back(a);
    Request b;
    b.task = TaskKind::kTopKParticipants;
    b.user = u;
    b.item = u % graphs_.n_items;
    b.k = 5;
    requests.push_back(b);
  }
  std::vector<std::future<Response>> futures;
  for (const Request& r : requests) futures.push_back(server.Submit(r));

  for (size_t i = 0; i < requests.size(); ++i) {
    const Response got = futures[i].get();
    ASSERT_EQ(got.code, ResponseCode::kOk);
    EXPECT_EQ(got.version, 1);
    const Response want = DirectScore(version->model.get(), requests[i]);
    EXPECT_EQ(got.top_k, want.top_k) << "request " << i;
    EXPECT_EQ(got.scores, want.scores) << "request " << i;
    EXPECT_GE(got.done_us, got.enqueue_us);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline + stats.invalid, 0);
}

TEST_F(ServeServerTest, DuplicateKeysInOneBatchAreScoredOnce) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 1;
  config.max_batch = 64;
  Server server(&pool, config);
  std::future<Response> blocker = OccupyWorker(&server);

  // All n queue behind the blocker and form the worker's next batch.
  const int64_t n = 16;
  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 2;
  r.k = 4;
  std::vector<std::future<Response>> futures;
  for (int64_t i = 0; i < n; ++i) futures.push_back(server.Submit(r));
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());

  for (size_t i = 1; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].code, ResponseCode::kOk);
    EXPECT_EQ(responses[i].top_k, responses[0].top_k);
    EXPECT_EQ(responses[i].scores, responses[0].scores);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.unique_scored, 2);  // the blocker's key + the shared one
  EXPECT_EQ(stats.coalesced, n - 1);
  EXPECT_EQ(stats.batches, 2);
}

TEST_F(ServeServerTest, CacheServesRepeatKeysAcrossBatches) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 1;
  config.cache_capacity = 8;
  Server server(&pool, config);

  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 5;
  r.k = 3;
  const Response first = server.Submit(r).get();
  ASSERT_EQ(first.code, ResponseCode::kOk);
  EXPECT_FALSE(first.cache_hit);

  const Response second = server.Submit(r).get();
  ASSERT_EQ(second.code, ResponseCode::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.top_k, first.top_k);
  EXPECT_EQ(second.scores, first.scores);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.unique_scored, 1);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST_F(ServeServerTest, CacheEvictsLeastRecentlyUsedKey) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 1;
  config.cache_capacity = 2;
  Server server(&pool, config);

  auto submit_user = [&](int64_t u) {
    Request r;
    r.task = TaskKind::kTopKItems;
    r.user = u;
    return server.Submit(r).get();
  };
  EXPECT_FALSE(submit_user(0).cache_hit);  // cache {0}
  EXPECT_FALSE(submit_user(1).cache_hit);  // cache {1, 0}
  EXPECT_TRUE(submit_user(0).cache_hit);   // cache {0, 1}
  EXPECT_FALSE(submit_user(2).cache_hit);  // evicts 1 -> {2, 0}
  EXPECT_FALSE(submit_user(1).cache_hit);  // 1 was evicted
  EXPECT_TRUE(submit_user(2).cache_hit);
}

TEST_F(ServeServerTest, ShedsWithBackpressureWhenQueueIsFull) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  // The lone worker is busy, so submissions pile up in the admission
  // queue and the bounded queue must shed the overflow.
  ServerConfig config;
  config.queue_capacity = 4;
  config.max_batch = 64;
  config.n_workers = 1;
  Server server(&pool, config);
  std::future<Response> blocker = OccupyWorker(&server);

  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 1;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(server.Submit(r));

  int64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const Response resp = f.get();
    if (resp.code == ResponseCode::kOk) ++ok;
    if (resp.code == ResponseCode::kShedQueueFull) ++shed;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 5);  // the blocker + the 4 queued
  EXPECT_EQ(stats.shed_queue_full, 6);
}

TEST_F(ServeServerTest, ShedsExpiredDeadlinesAtAdmissionAndInBatch) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 1;
  Server server(&pool, config);

  // The monotonic clock starts at 0 on its first use in the process;
  // spin past it so NowMicros() - 1 is a real (positive) deadline.
  while (trace::NowMicros() <= 1) {
  }
  std::future<Response> blocker = OccupyWorker(&server);

  // Already expired at Submit: shed immediately, never queued.
  Request expired;
  expired.task = TaskKind::kTopKItems;
  expired.user = 0;
  expired.deadline_us = trace::NowMicros() - 1;
  EXPECT_EQ(server.Submit(expired).get().code, ResponseCode::kShedDeadline);

  // Expires while queued behind the 200 ms blocker: shed at scoring
  // time, not served late.
  Request queued;
  queued.task = TaskKind::kTopKItems;
  queued.user = 0;
  queued.deadline_us = trace::NowMicros() + 50 * 1000;
  EXPECT_EQ(server.Submit(queued).get().code, ResponseCode::kShedDeadline);
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_deadline, 2);
  EXPECT_EQ(stats.completed, 1);  // the blocker
  EXPECT_EQ(stats.admitted, 2);
}

TEST_F(ServeServerTest, RejectsOutOfCatalogueKeys) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  Server server(&pool, config);

  Request bad_user;
  bad_user.task = TaskKind::kTopKItems;
  bad_user.user = graphs_.n_users + 7;
  EXPECT_EQ(server.Submit(bad_user).get().code,
            ResponseCode::kInvalidArgument);

  Request bad_item;
  bad_item.task = TaskKind::kTopKParticipants;
  bad_item.user = 0;
  bad_item.item = graphs_.n_items;
  EXPECT_EQ(server.Submit(bad_item).get().code,
            ResponseCode::kInvalidArgument);

  EXPECT_EQ(server.stats().invalid, 2);
}

TEST_F(ServeServerTest, OnePickupTakesAtMostMaxBatch) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.max_batch = 4;
  config.n_workers = 1;
  Server server(&pool, config);
  std::future<Response> blocker = OccupyWorker(&server);

  // Ten requests queue behind the blocker; the worker then takes them
  // in FIFO pickups of 4, 4 and 2.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.task = TaskKind::kTopKItems;
    r.user = i % graphs_.n_users;
    futures.push_back(server.Submit(r));
  }
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  std::vector<int64_t> taken_at;
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    taken_at.push_back(resp.batch_close_us);
  }
  for (size_t i = 1; i < taken_at.size(); ++i) {
    if (i % 4 == 0) {
      EXPECT_LT(taken_at[i - 1], taken_at[i]) << "request " << i;
    } else {
      EXPECT_EQ(taken_at[i - 1], taken_at[i]) << "request " << i;
    }
  }
  EXPECT_EQ(server.stats().batches, 4);
}

TEST_F(ServeServerTest, StopDrainsAdmittedRequestsAndRejectsNewOnes) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 2;
  Server server(&pool, config);

  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 3;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.Submit(r));
  server.Stop();

  for (auto& f : futures) {
    EXPECT_EQ(f.get().code, ResponseCode::kOk);
  }
  EXPECT_EQ(server.Submit(r).get().code, ResponseCode::kShutdown);
  server.Stop();  // idempotent
}

TEST_F(ServeServerTest, ConcurrentSubmittersAccountForEveryRequest) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  ServerConfig config;
  config.n_workers = 2;
  config.cache_capacity = 64;
  Server server(&pool, config);

  const int kThreads = 4;
  const int kPerThread = 40;
  std::atomic<int64_t> ok{0}, shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Request r;
        r.task = i % 3 == 0 ? TaskKind::kTopKParticipants
                            : TaskKind::kTopKItems;
        r.user = (t * kPerThread + i) % graphs_.n_users;
        r.item = i % graphs_.n_items;
        const Response resp = server.Submit(r).get();
        if (resp.code == ResponseCode::kOk) {
          ok.fetch_add(1);
        } else {
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(ok.load() + shed.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.completed + stats.shed_queue_full + stats.shed_deadline +
                stats.invalid,
            stats.submitted);
}

TEST_F(ServeSwapTest, HotSwapMidTrafficEveryResponseBitwiseAttributable) {
  // Two checkpoints with different parameters, plus the direct-scoring
  // reference model for each. Checkpoint round-trips are bitwise (see
  // checkpoint_test), so the reference models ARE the served versions.
  std::unique_ptr<MgbrModel> model_a = MakeModel(1);
  std::unique_ptr<MgbrModel> model_b = MakeModel(2);
  const ScopedTempDir temp("serve_swap");
  const std::string dir = temp.File("swap");
  const std::string ckpt_a = dir + "_a.mgbr";
  const std::string ckpt_b = dir + "_b.mgbr";
  ASSERT_TRUE(SaveParameters(model_a->Parameters(), ckpt_a).ok());
  ASSERT_TRUE(SaveParameters(model_b->Parameters(), ckpt_b).ok());

  ModelPool pool(Factory(99));
  ASSERT_TRUE(pool.LoadVersion(ckpt_a).ok());  // id 1 = A

  ServerConfig config;
  config.n_workers = 2;
  config.cache_capacity = 32;  // also exercises swap invalidation
  Server server(&pool, config);

  auto reference_for = [&](int64_t version_id) -> RecModel* {
    // id 1 = ckpt_a, id 2 = ckpt_b, id 3 = ckpt_a again.
    return version_id == 2 ? static_cast<RecModel*>(model_b.get())
                           : static_cast<RecModel*>(model_a.get());
  };
  auto check = [&](const Request& req, const Response& resp) {
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    ASSERT_GE(resp.version, 1);
    ASSERT_LE(resp.version, 3);
    const Response want = DirectScore(reference_for(resp.version), req);
    EXPECT_EQ(resp.top_k, want.top_k) << "version " << resp.version;
    EXPECT_EQ(resp.scores, want.scores) << "version " << resp.version;
  };
  auto make_request = [&](int i) {
    Request r;
    r.task = TaskKind::kTopKItems;
    r.user = i % graphs_.n_users;
    r.k = 4;
    return r;
  };

  // Phase 1: all traffic served by version 1 (A).
  for (int i = 0; i < 20; ++i) {
    const Request req = make_request(i);
    const Response resp = server.Submit(req).get();
    check(req, resp);
    EXPECT_EQ(resp.version, 1);
  }

  // Phase 2: swap to B with zero downtime, then verify the very next
  // response already scores from B (and never a half-loaded mix).
  ASSERT_TRUE(pool.LoadVersion(ckpt_b).ok());  // id 2 = B
  for (int i = 0; i < 20; ++i) {
    const Request req = make_request(i);
    const Response resp = server.Submit(req).get();
    check(req, resp);
    EXPECT_EQ(resp.version, 2);
  }

  // Phase 3: swap back to A concurrently with in-flight traffic; every
  // response must match whichever version it claims (2 or 3), bitwise.
  std::thread swapper([&] { ASSERT_TRUE(pool.LoadVersion(ckpt_a).ok()); });
  std::vector<std::pair<Request, std::future<Response>>> inflight;
  for (int i = 0; i < 40; ++i) {
    const Request req = make_request(i);
    inflight.emplace_back(req, server.Submit(req));
  }
  swapper.join();
  bool saw_v3 = false;
  for (auto& [req, future] : inflight) {
    const Response resp = future.get();
    check(req, resp);
    saw_v3 = saw_v3 || resp.version == 3;
  }
  // After the swap completed, new traffic must be on version 3.
  const Request req = make_request(0);
  const Response resp = server.Submit(req).get();
  check(req, resp);
  EXPECT_EQ(resp.version, 3);
  saw_v3 = saw_v3 || resp.version == 3;
  EXPECT_TRUE(saw_v3);
  EXPECT_EQ(pool.swap_count(), 3);
}

// ---------------------------------------------------------------------------
// Two-stage retrieval through the server.
// ---------------------------------------------------------------------------

TEST_F(ServeRetrievalTest, TwoStageResponsesMatchBruteBitwise) {
  ModelPool pool(GbgcnFactory(8), TwoStage());
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "init");
  ServerConfig config;
  config.n_workers = 2;
  Server server(&pool, config);

  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    Request req;
    req.task = TaskKind::kTopKItems;
    req.user = u;
    req.k = 5;
    const Response resp = server.Submit(req).get();
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    const Response want = DirectScore(reference.get(), req);
    EXPECT_EQ(resp.top_k, want.top_k) << "user " << u;
    EXPECT_EQ(resp.scores, want.scores) << "user " << u;
  }
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, graphs_.n_users);
}

TEST_F(ServeRetrievalTest, RetrievalOffKeepsBrutePathAndCountsNothing) {
  ModelPool pool(GbgcnFactory(8));
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "init");
  Server server(&pool, ServerConfig{});  // pool retrieval off by default

  Request req;
  req.task = TaskKind::kTopKItems;
  req.user = 1;
  req.k = 5;
  const Response resp = server.Submit(req).get();
  ASSERT_EQ(resp.code, ResponseCode::kOk);
  const Response want = DirectScore(reference.get(), req);
  EXPECT_EQ(resp.top_k, want.top_k);
  EXPECT_EQ(resp.scores, want.scores);
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, 0);
}

TEST_F(ServeRetrievalTest, ModelWithoutRetrievalViewFallsBackToBrute) {
  // MGBR exposes no retrieval view: enabling retrieval must be a
  // silent no-op, never an error or a wrong answer.
  ModelPool pool(Factory(3), TwoStage());
  std::unique_ptr<MgbrModel> reference = MakeModel(3);
  pool.Install(MakeModel(3), "init");
  Server server(&pool, ServerConfig{});

  Request req;
  req.task = TaskKind::kTopKItems;
  req.user = 2;
  req.k = 5;
  const Response resp = server.Submit(req).get();
  ASSERT_EQ(resp.code, ResponseCode::kOk);
  const Response want = DirectScore(reference.get(), req);
  EXPECT_EQ(resp.top_k, want.top_k);
  EXPECT_EQ(resp.scores, want.scores);
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, 0);
}

TEST_F(ServeRetrievalTest, ServerConstructionRepublishesNothing) {
  // What a version carries is fixed by the pool's config: the first
  // Install already builds both artifacts, and building a server over
  // the pool leaves the served version exactly as it was.
  serve::PoolConfig pool_config = TwoStage();
  pool_config.quant = QuantMode::kBf16;
  ModelPool pool(GbgcnFactory(8), pool_config);
  ASSERT_EQ(pool.Install(MakeGbgcn(8), "init"), 1);
  const std::shared_ptr<ModelPool::Version> installed = pool.Acquire();
  ASSERT_NE(installed, nullptr);
  EXPECT_NE(installed->retriever, nullptr);
  ASSERT_NE(installed->quant, nullptr);
  EXPECT_EQ(installed->quant->mode(), QuantMode::kBf16);

  Server server(&pool, ServerConfig{});
  EXPECT_EQ(pool.Acquire(), installed);
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.swap_count(), 1);
}

TEST_F(ServeRetrievalTest, HugeCutoffServesTheWholeCatalogueTwoStage) {
  // The index is asked for k * overfetch candidates. A k past
  // INT64_MAX / overfetch must clamp to the catalogue, not overflow
  // into an empty candidate set and a silent brute-force fallback.
  ModelPool pool(GbgcnFactory(8), TwoStage());
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "init");
  Server server(&pool, ServerConfig{});

  Request req;
  req.task = TaskKind::kTopKItems;
  req.user = 1;
  req.k = std::numeric_limits<int64_t>::max();
  const Response resp = server.Submit(req).get();
  ASSERT_EQ(resp.code, ResponseCode::kOk);
  EXPECT_EQ(static_cast<int64_t>(resp.top_k.size()), graphs_.n_items);
  const Response want = DirectScore(reference.get(), req);
  EXPECT_EQ(resp.top_k, want.top_k);
  EXPECT_EQ(resp.scores, want.scores);
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, 1);
}

TEST_F(ServeRetrievalTest, CacheSharesSameCutoffButNeverAcrossCutoffs) {
  ModelPool pool(GbgcnFactory(8), TwoStage());
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "init");
  ServerConfig config;
  config.cache_capacity = 32;
  Server server(&pool, config);

  auto submit = [&](int64_t k) {
    Request req;
    req.task = TaskKind::kTopKItems;
    req.user = 3;
    req.k = k;
    const Response resp = server.Submit(req).get();
    EXPECT_EQ(resp.code, ResponseCode::kOk);
    const Response want = DirectScore(reference.get(), req);
    EXPECT_EQ(resp.top_k, want.top_k) << "k=" << k;
    EXPECT_EQ(resp.scores, want.scores) << "k=" << k;
  };
  // Same (user, k) repeats hit the candidate-score cache; a different k
  // keys a DIFFERENT candidate set and must not reuse the k=4 entry.
  submit(4);
  const int64_t hits_before = server.stats().cache_hits;
  submit(4);
  EXPECT_GT(server.stats().cache_hits, hits_before);
  submit(2);
  submit(graphs_.n_items);  // k = catalogue: candidates cover everything
  server.Stop();
}

TEST_F(ServeRetrievalTest, HotSwapNeverServesAStaleIndex) {
  // ServeSwapTest's attribution contract with retrieval ON: every
  // response must match its claimed version's brute-force reference
  // bitwise. A retriever consulted against a different version's
  // embeddings would surface wrong candidate sets and break equality.
  std::unique_ptr<Gbgcn> model_a = MakeGbgcn(1);
  std::unique_ptr<Gbgcn> model_b = MakeGbgcn(2);
  const ScopedTempDir temp("serve_retrieval_swap");
  const std::string dir = temp.File("retrieval_swap");
  const std::string ckpt_a = dir + "_a.mgbr";
  const std::string ckpt_b = dir + "_b.mgbr";
  ASSERT_TRUE(SaveParameters(model_a->Parameters(), ckpt_a).ok());
  ASSERT_TRUE(SaveParameters(model_b->Parameters(), ckpt_b).ok());

  ModelPool pool(GbgcnFactory(99), TwoStage());
  ASSERT_TRUE(pool.LoadVersion(ckpt_a).ok());  // id 1 = A
  ServerConfig config;
  config.n_workers = 2;
  config.cache_capacity = 32;
  Server server(&pool, config);

  auto reference_for = [&](int64_t version_id) -> RecModel* {
    return version_id == 2 ? static_cast<RecModel*>(model_b.get())
                           : static_cast<RecModel*>(model_a.get());
  };
  auto make_request = [&](int i) {
    Request r;
    r.task = TaskKind::kTopKItems;
    r.user = i % graphs_.n_users;
    r.k = 4;
    return r;
  };
  auto check = [&](const Request& req, const Response& resp) {
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    const Response want = DirectScore(reference_for(resp.version), req);
    EXPECT_EQ(resp.top_k, want.top_k) << "version " << resp.version;
    EXPECT_EQ(resp.scores, want.scores) << "version " << resp.version;
  };

  for (int i = 0; i < 20; ++i) {
    const Request req = make_request(i);
    const Response resp = server.Submit(req).get();
    check(req, resp);
    EXPECT_EQ(resp.version, 1);
  }
  // Swap to B concurrently with in-flight two-stage traffic.
  std::thread swapper([&] { ASSERT_TRUE(pool.LoadVersion(ckpt_b).ok()); });
  std::vector<std::pair<Request, std::future<Response>>> inflight;
  for (int i = 0; i < 40; ++i) {
    const Request req = make_request(i);
    inflight.emplace_back(req, server.Submit(req));
  }
  swapper.join();
  for (auto& [req, future] : inflight) {
    const Response resp = future.get();
    check(req, resp);
  }
  const Request req = make_request(0);
  const Response resp = server.Submit(req).get();
  check(req, resp);
  EXPECT_EQ(resp.version, 2);
  server.Stop();
  EXPECT_GT(server.stats().two_stage, 0);
}

// ---------------------------------------------------------------------------
// Serving observability: request ids + stage timestamps, /healthz
// lifecycle, exporter wiring, and the shed-triggered flight dump.
// ---------------------------------------------------------------------------

/// Blocking one-shot HTTP GET against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ServeObsTest, ResponsesCarryIdsAndStageTimestamps) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.n_workers = 1;
  Server server(&pool, config);

  // The monotonic clock starts at 0 on first use; spin past it so every
  // reached stage gets a strictly positive timestamp.
  while (trace::NowMicros() <= 1) {
  }

  Request r;
  r.task = TaskKind::kTopKItems;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    r.user = i % graphs_.n_users;
    futures.push_back(server.Submit(r));
  }
  std::vector<int64_t> ids;
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    ids.push_back(resp.id);
    // Every lifecycle stage was reached, in order.
    EXPECT_GT(resp.enqueue_us, 0);
    EXPECT_GE(resp.batch_close_us, resp.enqueue_us);
    EXPECT_GE(resp.score_start_us, resp.batch_close_us);
    EXPECT_GE(resp.done_us, resp.score_start_us);
  }
  // Ids are assigned at Submit in order: 1..6, all distinct.
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i + 1));
  }

  // A request shed at admission still gets an id, but no stage
  // timestamps past submission.
  while (trace::NowMicros() <= 1) {
  }
  Request expired;
  expired.task = TaskKind::kTopKItems;
  expired.user = 0;
  expired.deadline_us = trace::NowMicros() - 1;
  const Response shed = server.Submit(expired).get();
  EXPECT_EQ(shed.code, ResponseCode::kShedDeadline);
  EXPECT_EQ(shed.id, 7);
  EXPECT_EQ(shed.batch_close_us, 0);
  EXPECT_EQ(shed.score_start_us, 0);
}

TEST_F(ServeObsTest, HealthzTracksDrainAndHotSwap) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "a");
  ServerConfig config;
  Server server(&pool, config);

  EXPECT_EQ(server.state(), Server::State::kRunning);
  EXPECT_NE(server.HealthzJson().find("\"status\":\"running\""),
            std::string::npos);
  EXPECT_NE(server.HealthzJson().find("\"model_version\":1"),
            std::string::npos);

  // A hot swap shows up immediately.
  pool.Install(MakeModel(2), "b");
  EXPECT_NE(server.HealthzJson().find("\"model_version\":2"),
            std::string::npos);
  EXPECT_NE(server.HealthzJson().find("\"swap_count\":2"),
            std::string::npos);

  // Drive traffic and stop concurrently; every /healthz observation
  // along the way must be a valid forward transition
  // running -> draining -> stopped.
  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 1;
  for (int i = 0; i < 8; ++i) server.Submit(r);
  std::thread stopper([&] { server.Stop(); });
  int last_rank = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string healthz = server.HealthzJson();
    int rank = -1;
    if (healthz.find("\"status\":\"running\"") != std::string::npos) rank = 0;
    if (healthz.find("\"status\":\"draining\"") != std::string::npos) rank = 1;
    if (healthz.find("\"status\":\"stopped\"") != std::string::npos) rank = 2;
    ASSERT_GE(rank, 0) << healthz;
    EXPECT_GE(rank, last_rank) << "state went backwards: " << healthz;
    last_rank = rank;
    if (rank == 2) break;
  }
  stopper.join();
  EXPECT_EQ(last_rank, 2);
  EXPECT_EQ(server.state(), Server::State::kStopped);
  // /varz keeps reporting after the drain (post-drain scrape contract).
  EXPECT_NE(server.VarzJson(false).find("\"state\":\"stopped\""),
            std::string::npos);
}

TEST_F(ServeObsTest, ExporterServesScrapesWhileServing) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.obs.metrics_port = 0;  // ephemeral
  config.obs.flight_capacity = 16;
  Server server(&pool, config);
  ASSERT_GT(server.metrics_port(), 0);

  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 2;
  EXPECT_EQ(server.Submit(r).get().code, ResponseCode::kOk);
  Request bad = r;
  bad.user = graphs_.n_users;  // outside the served catalogue
  EXPECT_EQ(server.Submit(bad).get().code, ResponseCode::kInvalidArgument);

  const std::string healthz = HttpGet(server.metrics_port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"running\""), std::string::npos);
  const std::string metrics = HttpGet(server.metrics_port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  // Telemetry is off, yet every count scrapes, equal to the server's
  // and the pool's own accounting, plus the three gauges read now.
  const auto sample = [](const std::string& name, int64_t value) {
    return "\nserve_" + name + " " + std::to_string(value) + "\n";
  };
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.invalid, 1);
  for (const auto& field : serve::kServerStatsFields) {
    EXPECT_NE(metrics.find(sample(field.name, stats.*field.member)),
              std::string::npos)
        << field.name << "\n"
        << metrics;
  }
  const serve::PoolStats pool_stats = pool.stats();
  for (const auto& field : serve::kPoolStatsFields) {
    EXPECT_NE(metrics.find(sample(field.name, pool_stats.*field.member)),
              std::string::npos)
        << field.name;
  }
  EXPECT_NE(metrics.find(sample("queue_depth", 0)), std::string::npos);
  EXPECT_NE(metrics.find(sample("model_version", 1)), std::string::npos);
  EXPECT_NE(metrics.find(sample("model_bytes", 0)), std::string::npos);
  EXPECT_NE(metrics.find(sample("degrade_level", 0)), std::string::npos);
  const std::string varz =
      HttpGet(server.metrics_port(), "/varz?flight=1");
  EXPECT_NE(varz.find("\"server\":"), std::string::npos);
  EXPECT_NE(varz.find("\"flight\":"), std::string::npos);
  EXPECT_NE(varz.find("\"id\":1"), std::string::npos);  // the request above

  // The exporter outlives Stop(): post-drain totals stay scrapeable.
  server.Stop();
  const std::string after = HttpGet(server.metrics_port(), "/healthz");
  EXPECT_NE(after.find("\"status\":\"stopped\""), std::string::npos);
}

TEST_F(ServeObsTest, EachExporterScrapesItsOwnServersCounts) {
  // With telemetry on, the process registry is shared by both servers;
  // their counts must not be.
  struct TelemetryOn {
    const bool was = TelemetryEnabled();
    TelemetryOn() { SetTelemetryEnabled(true); }
    ~TelemetryOn() { SetTelemetryEnabled(was); }
  } telemetry_on;
  ModelPool pool_a(Factory(3));
  ModelPool pool_b(Factory(3));
  pool_a.Install(MakeModel(1), "a");
  pool_b.Install(MakeModel(2), "b");
  ServerConfig config;
  config.obs.metrics_port = 0;
  Server server_a(&pool_a, config);
  Server server_b(&pool_b, config);
  ASSERT_GT(server_a.metrics_port(), 0);
  ASSERT_GT(server_b.metrics_port(), 0);

  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 1;
  EXPECT_EQ(server_a.Submit(r).get().code, ResponseCode::kOk);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server_b.Submit(r).get().code, ResponseCode::kOk);
  }
  EXPECT_NE(HttpGet(server_a.metrics_port(), "/metrics")
                .find("\nserve_submitted 1\n"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_b.metrics_port(), "/metrics")
                .find("\nserve_submitted 3\n"),
            std::string::npos);
}

TEST_F(ServeObsTest, VarzEscapesSwapEventSources) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "quote\" backslash\\ newline\n end");
  Server server(&pool, ServerConfig{});
  EXPECT_NE(server.VarzJson(false).find(
                R"("source":"quote\" backslash\\ newline\n end")"),
            std::string::npos)
      << server.VarzJson(false);
}

TEST_F(ServeObsTest, ShedBurstTriggersFlightDump) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");

  const ScopedTempDir temp("serve_flight");
  const std::string dump_path = temp.File("flight.json");
  ServerConfig config;
  config.queue_capacity = 2;
  config.max_batch = 64;
  config.n_workers = 1;
  config.obs.flight_capacity = 64;
  config.obs.flight_dump_path = dump_path;
  config.obs.flight_dump_shed_threshold = 0.05;
  Server server(&pool, config);
  // Make the evaluation deterministic: stop the 1 Hz ticker, then
  // evaluate the window that absorbed the burst once it is over.
  ASSERT_NE(server.slo_monitor(), nullptr);
  server.slo_monitor()->Stop();
  std::future<Response> blocker = OccupyWorker(&server);

  // Two fit in the queue behind the busy worker; the rest shed.
  Request r;
  r.task = TaskKind::kTopKItems;
  r.user = 1;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(server.Submit(r));
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  int64_t shed = 0;
  for (auto& f : futures) {
    if (f.get().code == ResponseCode::kShedQueueFull) ++shed;
  }
  ASSERT_EQ(shed, 10);  // a real burst, way past the 5% threshold
  server.slo_monitor()->Evaluate(trace::NowMicros());
  EXPECT_EQ(server.flight_dumps(), 1);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  // Shed and completed requests both land in the black box, with the
  // outcome named and the stage waits attributed.
  EXPECT_NE(dump.find("\"outcome\":\"ShedQueueFull\""), std::string::npos);
  EXPECT_NE(dump.find("\"outcome\":\"Ok\""), std::string::npos);
  EXPECT_NE(dump.find("\"queue_wait_us\":"), std::string::npos);
  EXPECT_NE(dump.find("\"batch_wait_us\":"), std::string::npos);
  EXPECT_NE(dump.find("\"score_us\":"), std::string::npos);

  // Still breaching on the next evaluation: edge-triggered, no re-dump.
  server.slo_monitor()->Evaluate(trace::NowMicros());
  EXPECT_EQ(server.flight_dumps(), 1);
}

// ---------------------------------------------------------------------------
// Validation-gated installs, rollback, and the bounded load retry.
// Runs under TSan in CI.
// ---------------------------------------------------------------------------

class ServeValidationTest : public ServeTestBase {
 protected:
  const ScopedTempDir temp_{"serve_validation"};

  /// Pool config with the canary gate on.
  static serve::PoolConfig Gate(double min_ref_overlap = 0.0) {
    serve::PoolConfig config;
    config.validation.enabled = true;
    config.validation.probe_users = 4;
    config.validation.probe_k = 3;
    config.validation.min_ref_overlap = min_ref_overlap;
    return config;
  }

  /// Checkpoint of `seed`'s model with every parameter's first element
  /// NaN-poisoned: the CRCs are VALID (the corruption happened before
  /// the save), so only the canary can reject it.
  std::string SaveNanPoisoned(uint64_t seed, const std::string& tag) const {
    std::unique_ptr<MgbrModel> poisoned = MakeModel(seed);
    std::vector<Var> params = poisoned->Parameters();
    for (Var& p : params) {
      p.mutable_value().at(0, 0) = std::numeric_limits<float>::quiet_NaN();
    }
    const std::string path = temp_.File(tag + ".mgbr");
    EXPECT_TRUE(SaveParameters(params, path).ok());
    return path;
  }
};

TEST_F(ServeValidationTest, CanaryRejectsNanPoisonedCheckpoint) {
  const std::string nan_path = SaveNanPoisoned(2, "nan");
  ModelPool pool(Factory(2), Gate());
  ASSERT_EQ(pool.Install(MakeModel(1), "seed"), 1);

  // The poisoned checkpoint round-trips its CRCs, so LoadVersion's
  // format verification passes — the finite-score canary is the only
  // line of defence, and the served version must survive the attempt.
  EXPECT_FALSE(pool.LoadVersion(nan_path).ok());
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.swap_count(), 1);
  EXPECT_EQ(pool.rejected_count(), 1);

  // The rejection is event-logged with the checkpoint as its source.
  const std::vector<ModelPool::SwapEvent> events = pool.SwapEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, ModelPool::SwapEvent::Kind::kReject);
  EXPECT_EQ(events[1].source, nan_path);
  EXPECT_FALSE(events[1].detail.empty());
}

TEST_F(ServeValidationTest, CanaryRejectsNanPoisonedInstall) {
  ModelPool pool(Factory(2), Gate());
  ASSERT_EQ(pool.Install(MakeModel(1), "seed"), 1);

  std::unique_ptr<MgbrModel> poisoned = MakeModel(2);
  for (Var& p : poisoned->Parameters()) {
    p.mutable_value().at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  }
  poisoned->Refresh();
  EXPECT_EQ(pool.Install(std::move(poisoned), "poisoned"), 0);
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.rejected_count(), 1);
}

TEST_F(ServeValidationTest, CorruptCheckpointBurnsRetriesThenRejects) {
  std::unique_ptr<MgbrModel> source = MakeModel(1);
  const ScopedTempDir temp("serve_crc");
  const std::string path = temp.File("crc.mgbr");
  ASSERT_TRUE(SaveParameters(source->Parameters(), path).ok());
  FlipByteMidFile(path);

  ModelPool pool(Factory(9));
  pool.Install(MakeModel(1), "seed");

  // The checkpoint format reports detected corruption as kIoError —
  // indistinguishable from a transient EIO — so the corrupt file burns
  // the full (small, bounded) retry budget before rejection.
  EXPECT_EQ(pool.LoadVersion(path).code(), StatusCode::kIoError);
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.load_retries(), 2);
  EXPECT_EQ(pool.rejected_count(), 1);
}

TEST_F(ServeValidationTest, TransientReadEioIsRetriedOnce) {
  std::unique_ptr<MgbrModel> source = MakeModel(1);
  const ScopedTempDir temp("serve_eio_retry");
  const std::string path = temp.File("eio_retry.mgbr");
  ASSERT_TRUE(SaveParameters(source->Parameters(), path).ok());

  // The injected EIO is one-shot: attempt 0 fails, the retry reads the
  // (perfectly healthy) file and the version publishes.
  fault::Injection injection;
  injection.kind = fault::Injection::Kind::kReadEio;
  injection.match = path;
  fault::Install(injection);

  ModelPool pool(Factory(9));
  ASSERT_TRUE(pool.LoadVersion(path).ok());
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.load_retries(), 1);
  EXPECT_EQ(pool.rejected_count(), 0);
}

TEST_F(ServeValidationTest, AgreementGateScreensDivergentCandidates) {
  ModelPool pool(Factory(9), Gate(/*min_ref_overlap=*/1.0));

  // First accepted version becomes the agreement reference.
  ASSERT_EQ(pool.Install(MakeModel(1), "ref"), 1);

  // A differently-seeded model ranks the probe set differently; at
  // overlap 1.0 it must be rejected even though every score is finite.
  EXPECT_EQ(pool.Install(MakeModel(2), "divergent"), 0);
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.rejected_count(), 1);

  // A bitwise-identical model trivially reproduces the reference
  // ranking and publishes.
  EXPECT_EQ(pool.Install(MakeModel(1), "same"), 2);
  EXPECT_EQ(pool.current_id(), 2);
}

TEST_F(ServeValidationTest, RollbackRestoresLastKnownGood) {
  ModelPool pool(Factory(9));
  // Nothing to roll back to before (or right after) the first install.
  EXPECT_EQ(pool.Rollback().code(), StatusCode::kFailedPrecondition);
  pool.Install(MakeModel(1), "v1");
  EXPECT_EQ(pool.Rollback().code(), StatusCode::kFailedPrecondition);

  pool.Install(MakeModel(2), "v2");
  std::shared_ptr<ModelPool::Version> v2 = pool.Acquire();

  // Rollback republishes version 1 under ITS ORIGINAL id...
  ASSERT_TRUE(pool.Rollback().ok());
  EXPECT_EQ(pool.current_id(), 1);
  EXPECT_EQ(pool.rollback_count(), 1);
  std::shared_ptr<ModelPool::Version> restored = pool.Acquire();
  EXPECT_EQ(restored->id, 1);
  EXPECT_EQ(restored->source, "v1");

  // ...and the displaced version becomes the new rollback target, so a
  // second Rollback undoes the first (same model object as before).
  ASSERT_TRUE(pool.Rollback().ok());
  EXPECT_EQ(pool.current_id(), 2);
  EXPECT_EQ(pool.Acquire()->model.get(), v2->model.get());

  const std::vector<ModelPool::SwapEvent> events = pool.SwapEvents();
  int rollback_events = 0;
  for (const ModelPool::SwapEvent& e : events) {
    rollback_events += e.kind == ModelPool::SwapEvent::Kind::kRollback;
  }
  EXPECT_EQ(rollback_events, 2);
}

// ---------------------------------------------------------------------------
// SLO-driven degradation ladder. Controller hysteresis is unit-tested
// with synthetic window stats; the shed tier and response stamping go
// through a live server. Runs under TSan in CI.
// ---------------------------------------------------------------------------

class ServeDegradeTest : public ServeTestBase {
 protected:
  static obs::SloWindowStats Breach(bool breach) {
    obs::SloWindowStats stats;
    stats.fast_breach = breach;
    return stats;
  }
};

TEST_F(ServeDegradeTest, LadderStepsWithHysteresis) {
  serve::DegradeConfig config;
  config.enabled = true;
  config.step_up_after = 2;
  config.step_down_after = 3;
  serve::DegradationController ladder(config);

  // One breach is not enough; the second consecutive one engages.
  ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 0);
  ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 1);

  // A clean evaluation resets the breach streak: the next breach
  // starts over and needs a full streak again.
  ladder.OnEvaluate(Breach(false));
  ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 1);
  ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 2);

  // Stepping down needs step_down_after consecutive clean windows; a
  // breach in the middle resets the clean streak.
  ladder.OnEvaluate(Breach(false));
  ladder.OnEvaluate(Breach(false));
  ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 2);
  ladder.OnEvaluate(Breach(false));
  ladder.OnEvaluate(Breach(false));
  ladder.OnEvaluate(Breach(false));
  EXPECT_EQ(ladder.level(), 1);

  EXPECT_EQ(ladder.max_level_seen(), 2);
  EXPECT_EQ(ladder.transitions(), 3);
}

TEST_F(ServeDegradeTest, LadderClampsAtMaxLevelAndAtNormal) {
  serve::DegradeConfig config;
  config.enabled = true;
  config.max_level = 2;
  config.step_up_after = 1;
  config.step_down_after = 1;
  serve::DegradationController ladder(config);

  for (int i = 0; i < 6; ++i) ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(ladder.level(), 2);  // clamped at max_level
  for (int i = 0; i < 6; ++i) ladder.OnEvaluate(Breach(false));
  EXPECT_EQ(ladder.level(), 0);  // clamped at normal
  EXPECT_EQ(ladder.transitions(), 4);
}

TEST_F(ServeDegradeTest, EffectiveNprobeNarrowsOnlyAtReducedTiers) {
  serve::DegradeConfig config;
  config.enabled = true;
  config.step_up_after = 1;
  config.step_down_after = 1;
  serve::DegradationController ladder(config);

  // Below kReducedProbe: 0 = "use the configured nprobe".
  EXPECT_EQ(ladder.EffectiveNprobe(16), 0);
  ladder.OnEvaluate(Breach(true));  // -> kTwoStage
  EXPECT_EQ(ladder.EffectiveNprobe(16), 0);

  ladder.OnEvaluate(Breach(true));  // -> kReducedProbe
  EXPECT_EQ(ladder.EffectiveNprobe(16), 4);  // auto: configured / 4
  EXPECT_EQ(ladder.EffectiveNprobe(2), 1);   // never below 1

  serve::DegradeConfig fixed = config;
  fixed.reduced_nprobe = 7;
  serve::DegradationController explicit_ladder(fixed);
  explicit_ladder.OnEvaluate(Breach(true));
  explicit_ladder.OnEvaluate(Breach(true));
  EXPECT_EQ(explicit_ladder.EffectiveNprobe(16), 7);
}

TEST_F(ServeDegradeTest, ResponsesCarryTheTierTheyWereProducedUnder) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.n_workers = 1;
  config.degrade.enabled = true;
  config.degrade.step_up_after = 1;
  config.degrade.step_down_after = 1;
  Server server(&pool, config);
  // Drive the ladder synthetically: stop the 1 Hz ticker so no real
  // evaluation races the synthetic ones.
  ASSERT_NE(server.slo_monitor(), nullptr);
  server.slo_monitor()->Stop();
  ASSERT_NE(server.degrade_controller(), nullptr);

  Request r;
  r.user = 1;
  Response normal = server.Submit(r).get();
  ASSERT_EQ(normal.code, ResponseCode::kOk);
  EXPECT_EQ(normal.degrade_level, 0);

  server.degrade_controller()->OnEvaluate(Breach(true));  // -> kTwoStage
  ASSERT_EQ(server.degrade_level(), 1);
  // MGBR has no retrieval view, so tier 1 still brute-forces — but the
  // response is stamped with the tier it was produced under, and the
  // scores are bitwise those of the served version.
  Response tiered = server.Submit(r).get();
  ASSERT_EQ(tiered.code, ResponseCode::kOk);
  EXPECT_EQ(tiered.degrade_level, 1);
  EXPECT_EQ(tiered.top_k, normal.top_k);
  ASSERT_EQ(tiered.scores.size(), normal.scores.size());
  for (size_t i = 0; i < tiered.scores.size(); ++i) {
    EXPECT_EQ(tiered.scores[i], normal.scores[i]) << "rank " << i;
  }
}

TEST_F(ServeDegradeTest, TiersNarrowTheProbeOfAVersionWithAnIndex) {
  // The ladder builds nothing: a version that carries an index serves
  // Task A two-stage at every tier, tier 2 only narrowing its probe.
  // The tiny catalogue makes even the reduced probe exhaustive, so
  // every tier must reproduce the brute reference bitwise.
  ModelPool pool(GbgcnFactory(8), TwoStage());
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "seed");
  ServerConfig config;
  config.n_workers = 1;
  config.degrade.enabled = true;
  config.degrade.step_up_after = 1;
  config.degrade.step_down_after = 1;
  Server server(&pool, config);
  ASSERT_NE(server.slo_monitor(), nullptr);
  server.slo_monitor()->Stop();

  Request req;
  req.task = TaskKind::kTopKItems;
  req.k = 5;
  for (int tier = 0; tier <= 2; ++tier) {
    if (tier > 0) server.degrade_controller()->OnEvaluate(Breach(true));
    ASSERT_EQ(server.degrade_level(), tier);
    for (int64_t u = 0; u < graphs_.n_users; ++u) {
      req.user = u;
      const Response resp = server.Submit(req).get();
      ASSERT_EQ(resp.code, ResponseCode::kOk);
      EXPECT_EQ(resp.degrade_level, tier);
      const Response want = DirectScore(reference.get(), req);
      EXPECT_EQ(resp.top_k, want.top_k) << "tier " << tier << " user " << u;
      EXPECT_EQ(resp.scores, want.scores) << "tier " << tier << " user " << u;
    }
  }
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, 3 * graphs_.n_users);
}

TEST_F(ServeDegradeTest, VersionWithoutAnIndexBruteForcesAtEveryTier) {
  ModelPool pool(GbgcnFactory(8));  // retrieval off: no index is built
  std::unique_ptr<Gbgcn> reference = MakeGbgcn(8);
  pool.Install(MakeGbgcn(8), "seed");
  ServerConfig config;
  config.n_workers = 1;
  config.degrade.enabled = true;
  config.degrade.step_up_after = 1;
  config.degrade.step_down_after = 1;
  Server server(&pool, config);
  ASSERT_NE(server.slo_monitor(), nullptr);
  server.slo_monitor()->Stop();
  server.degrade_controller()->OnEvaluate(Breach(true));
  server.degrade_controller()->OnEvaluate(Breach(true));
  ASSERT_EQ(server.degrade_level(), 2);

  Request req;
  req.task = TaskKind::kTopKItems;
  req.k = 5;
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    req.user = u;
    const Response resp = server.Submit(req).get();
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    EXPECT_EQ(resp.degrade_level, 2);
    const Response want = DirectScore(reference.get(), req);
    EXPECT_EQ(resp.top_k, want.top_k) << "user " << u;
    EXPECT_EQ(resp.scores, want.scores) << "user " << u;
  }
  server.Stop();
  EXPECT_EQ(server.stats().two_stage, 0);
}

TEST_F(ServeDegradeTest, ShedTierAdmitsOneInNAndReleasesCleanly) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.n_workers = 1;
  config.degrade.enabled = true;
  config.degrade.step_up_after = 1;
  config.degrade.step_down_after = 1;
  config.degrade.shed_keep_one_in = 4;
  // The tight-deadline clamp (tier 3) also applies at tier 4. A kept
  // request that queues behind a slow score (sanitizer builds) must not
  // expire under it: this test is about one-in-N admission.
  config.degrade.admission_budget_us = 60'000'000;
  Server server(&pool, config);
  ASSERT_NE(server.slo_monitor(), nullptr);
  server.slo_monitor()->Stop();

  for (int i = 0; i < 4; ++i) {
    server.degrade_controller()->OnEvaluate(Breach(true));
  }
  ASSERT_EQ(server.degrade_level(), 4);

  // Request ids are assigned at Submit (starting at 1); the shed tier
  // keeps exactly the ids divisible by shed_keep_one_in.
  Request r;
  r.user = 1;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(server.Submit(r));
  int64_t ok = 0, shed_load = 0;
  for (auto& f : futures) {
    Response response = f.get();
    if (response.code == ResponseCode::kOk) {
      ++ok;
      EXPECT_EQ(response.id % 4, 0);
      EXPECT_EQ(response.degrade_level, 4);
    } else {
      ASSERT_EQ(response.code, ResponseCode::kShedLoad);
      ++shed_load;
      EXPECT_EQ(response.degrade_level, 4);
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed_load, 12);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_load, 12);
  EXPECT_EQ(stats.completed, 4);

  // Clean windows release the ladder; traffic then serves normally.
  for (int i = 0; i < 4; ++i) {
    server.degrade_controller()->OnEvaluate(Breach(false));
  }
  ASSERT_EQ(server.degrade_level(), 0);
  Response after = server.Submit(r).get();
  EXPECT_EQ(after.code, ResponseCode::kOk);
  EXPECT_EQ(after.degrade_level, 0);
  EXPECT_EQ(server.stats().shed_load, 12);  // no new load sheds
}

// ---------------------------------------------------------------------------
// Worker stall watchdog. Runs under TSan in CI.
// ---------------------------------------------------------------------------

class WatchdogTest : public ServeTestBase {};

TEST_F(WatchdogTest, ReplacesStalledWorkersWithoutDroppingRequests) {
  // Every 2nd scored key sleeps 250 ms — far past the 80 ms stall
  // timeout — so the watchdog must replace wedged workers while the
  // wedged threads finish their in-flight batches.
  fault::Injection injection;
  injection.kind = fault::Injection::Kind::kDelay;
  injection.match = "serve.score";
  injection.ms = 250;
  injection.every = 2;
  fault::Install(injection);

  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.n_workers = 2;
  config.max_batch = 4;
  config.watchdog.enabled = true;
  config.watchdog.stall_timeout_ms = 80;
  config.watchdog.check_interval_ms = 10;
  config.watchdog.max_restarts = 4;
  Server server(&pool, config);

  std::vector<std::future<Response>> futures;
  std::vector<Request> requests;
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.task = i % 2 == 0 ? TaskKind::kTopKItems : TaskKind::kTopKParticipants;
    r.user = i % graphs_.n_users;
    r.item = i % graphs_.n_items;
    r.k = 5;
    requests.push_back(r);
    futures.push_back(server.Submit(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();

  // Exactly-one-terminal-status: every admitted request completes OK
  // (no deadlines, no overload — the stalls may only add latency), and
  // the scores are still bitwise correct.
  std::shared_ptr<ModelPool::Version> version = pool.Acquire();
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_EQ(response.code, ResponseCode::kOk) << "request " << i;
    const Response expected = DirectScore(version->model.get(), requests[i]);
    EXPECT_EQ(response.top_k, expected.top_k) << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 16);
  EXPECT_GE(stats.worker_restarts, 1);
  EXPECT_LE(stats.worker_restarts, config.watchdog.max_restarts);
  EXPECT_EQ(server.worker_restarts(), stats.worker_restarts);
}

TEST_F(WatchdogTest, QuietWorkersAreNeverRestarted) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.n_workers = 2;
  config.watchdog.enabled = true;
  config.watchdog.stall_timeout_ms = 40;
  config.watchdog.check_interval_ms = 5;
  Server server(&pool, config);

  // Idle workers park in a condition wait; waiting is not stalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Request r;
  r.user = 1;
  EXPECT_EQ(server.Submit(r).get().code, ResponseCode::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  EXPECT_EQ(server.worker_restarts(), 0);
}

// ---------------------------------------------------------------------------
// Lifecycle: concurrent Submit vs hot swap/rollback vs Stop. Every
// submitted request gets exactly one terminal status and the counters
// reconcile exactly. Runs under TSan in CI.
// ---------------------------------------------------------------------------

class ServeLifecycleTest : public ServeTestBase {};

TEST_F(ServeLifecycleTest, ConcurrentStopSwapSubmitAccountsForEverything) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  ServerConfig config;
  config.queue_capacity = 64;
  config.max_batch = 8;
  config.n_workers = 2;
  Server server(&pool, config);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 150;
  std::atomic<bool> stop_swapping{false};

  // Swapper: install fresh versions and roll back, continuously.
  std::thread swapper([&] {
    uint64_t seed = 10;
    while (!stop_swapping.load(std::memory_order_relaxed)) {
      pool.Install(MakeModel(seed++), "swap");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pool.Rollback().ToString();  // best-effort; precondition races ok
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::vector<std::future<Response>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Request r;
        r.task =
            i % 3 == 0 ? TaskKind::kTopKParticipants : TaskKind::kTopKItems;
        r.user = (t + i) % graphs_.n_users;
        r.item = i % graphs_.n_items;
        r.k = 5;
        futures[t].push_back(server.Submit(r));
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }

  // Stop mid-traffic: the drain races live submissions and swaps.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  server.Stop();
  for (std::thread& t : submitters) t.join();
  stop_swapping.store(true, std::memory_order_relaxed);
  swapper.join();

  // Every future resolves with exactly one terminal status; OK
  // responses are well-formed and attributable to a real version.
  int64_t ok = 0, shed_queue = 0, shed_deadline = 0, shutdown = 0,
          invalid = 0, other = 0;
  for (auto& lane : futures) {
    for (auto& f : lane) {
      Response response = f.get();
      switch (response.code) {
        case ResponseCode::kOk:
          ++ok;
          EXPECT_GT(response.version, 0);
          EXPECT_EQ(response.top_k.size(), 5u);
          break;
        case ResponseCode::kShedQueueFull:
          ++shed_queue;
          break;
        case ResponseCode::kShedDeadline:
          ++shed_deadline;
          break;
        case ResponseCode::kShutdown:
          ++shutdown;
          break;
        case ResponseCode::kInvalidArgument:
          ++invalid;
          break;
        default:
          ++other;
          break;
      }
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_EQ(invalid, 0);
  EXPECT_EQ(ok + shed_queue + shed_deadline + shutdown,
            kSubmitters * kPerThread);

  // The server's own lifetime counters tell the same story (kShutdown
  // responses count as submitted but belong to no shed/complete class).
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kPerThread);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.shed_queue_full, shed_queue);
  EXPECT_EQ(stats.shed_deadline, shed_deadline);
  EXPECT_EQ(stats.submitted - stats.completed - stats.shed_queue_full -
                stats.shed_deadline - stats.shed_load - stats.invalid,
            shutdown);
  EXPECT_EQ(server.state(), Server::State::kStopped);
}

TEST_F(ServeLifecycleTest, StopIsIdempotentAndDestructorSafeUnderTraffic) {
  ModelPool pool(Factory(3));
  pool.Install(MakeModel(1), "seed");
  std::vector<std::future<Response>> futures;
  {
    ServerConfig config;
    config.n_workers = 2;
    Server server(&pool, config);
    Request r;
    r.user = 1;
    for (int i = 0; i < 8; ++i) futures.push_back(server.Submit(r));
    std::thread stopper([&] { server.Stop(); });
    server.Stop();  // concurrent + idempotent
    stopper.join();
    // Destructor runs here with already-resolved state.
  }
  int64_t terminal = 0;
  for (auto& f : futures) {
    const ResponseCode code = f.get().code;
    EXPECT_TRUE(code == ResponseCode::kOk || code == ResponseCode::kShutdown);
    ++terminal;
  }
  EXPECT_EQ(terminal, 8);
}

}  // namespace
}  // namespace mgbr
