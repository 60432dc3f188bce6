// The service contract on every run path (docs/service_api.md). Hybrid
// BFS/CC, checkpointed BFS/SSSP, and resume BFS/SSSP are phased jobs on
// asyncgt::engine, so each must honour what submit_bfs does:
//
//   * a deadline over a semi-external graph whose every read stalls ends
//     in traversal_aborted with reason deadline_exceeded;
//   * cancel() of such a wedged job ends with reason cancelled;
//   * an engine bounded to one pending job under the reject policy
//     refuses a second;
//   * job_stats carries the label, visits, edge inspections, and run time;
//   * counters() conserves: submitted == rejected + active + outcomes;
//   * a checkpointed BFS killed by its deadline, or cancelled before its
//     start visitor ran, leaves a checkpoint that resume_bfs finishes to
//     serial_bfs's labels;
//   * on every submit path — plain, multi-source, hybrid, checkpointed,
//     resumed, incremental — each job's job_stats equal the queue.* deltas
//     it left in the engine's registry, and its work counters are recorded.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "core/checkpoint.hpp"
#include "core/hybrid_traversal.hpp"
#include "gen/rmat.hpp"
#include "graph/graph_io.hpp"
#include "sem/fault_injector.hpp"
#include "sem/sem_csr.hpp"

namespace asyncgt {
namespace {

traversal_options threads(std::size_t n) {
  return traversal_options{}.with_threads(n);
}

void expect_conserved(const engine& eng) {
  const auto c = eng.counters();
  EXPECT_EQ(c.active, 0u);
  EXPECT_EQ(c.submitted, c.rejected + c.active + c.completed + c.failed +
                             c.cancelled + c.deadline_exceeded + c.stalled +
                             c.shed);
}

/// A job handle with its result type erased, so one test body drives every
/// run path.
struct any_job {
  std::function<void()> get;  // rethrows the job's error
  std::function<void()> cancel;
  std::function<service::job_stats()> stats;
};

template <typename Result>
any_job erase(job<Result> j) {
  auto p = std::make_shared<job<Result>>(std::move(j));
  return {[p] { (void)p->get(); }, [p] { p->cancel(); },
          [p] { return p->stats(); }};
}

using graph_t = sem::sem_csr32;

struct run_path {
  const char* label;  // the job label job_stats must carry
  std::function<any_job(engine&, const graph_t&, const std::string& ckpt,
                        traversal_options)>
      submit;
};

// Names the parameter in test listings instead of dumping its bytes.
void PrintTo(const run_path& p, std::ostream* os) { *os << p.label; }

/// A snapshot with only the start vertex labelled: resuming it is a full
/// traversal from vertex 0.
traversal_checkpoint<vertex32> start_only(std::uint64_t n) {
  traversal_checkpoint<vertex32> cp;
  cp.label.assign(n, infinite_distance<dist_t>);
  cp.parent.assign(n, invalid_vertex<vertex32>);
  cp.label[0] = 0;
  cp.parent[0] = 0;
  return cp;
}

std::vector<run_path> run_paths() {
  return {
      {"hybrid_bfs",
       [](engine& e, const graph_t& g, const std::string&,
          traversal_options o) {
         return erase(e.submit_hybrid_bfs(g, vertex32{0}, nullptr, o));
       }},
      {"hybrid_cc",
       [](engine& e, const graph_t& g, const std::string&,
          traversal_options o) {
         return erase(e.submit_hybrid_cc(g, nullptr, o));
       }},
      {"checkpointed_bfs",
       [](engine& e, const graph_t& g, const std::string& ckpt,
          traversal_options o) {
         return erase(e.submit_checkpointed_bfs(g, vertex32{0}, ckpt, o));
       }},
      {"checkpointed_sssp",
       [](engine& e, const graph_t& g, const std::string& ckpt,
          traversal_options o) {
         return erase(e.submit_checkpointed_sssp(g, vertex32{0}, ckpt, o));
       }},
      {"resume_bfs",
       [](engine& e, const graph_t& g, const std::string&,
          traversal_options o) {
         return erase(e.submit_resume_bfs(g, start_only(g.num_vertices()), o));
       }},
      {"resume_sssp",
       [](engine& e, const graph_t& g, const std::string&,
          traversal_options o) {
         return erase(
             e.submit_resume_sssp(g, start_only(g.num_vertices()), o));
       }},
  };
}

/// One RMAT-A 2^10 undirected graph on disk (.agt plus .rev companion)
/// per suite, and its in-memory twin for the serial baseline.
class SemGraphTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("agt_run_paths_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    csr32 g = rmat_graph_undirected<vertex32>(rmat_a(10, 5));
    write_graph_with_reverse(graph_path(), g);
    im_ = new csr32(std::move(g));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete im_;
  }

  static std::string graph_path() { return (*dir_ / "g.agt").string(); }
  static std::string ckpt_path() { return (*dir_ / "run.ckpt").string(); }

  /// The SEM view of the graph, reverse included; every read stalls when
  /// `stall` is set, until the job's abort hint unwinds it.
  std::unique_ptr<graph_t> open_graph(bool stall) {
    auto g = std::make_unique<graph_t>(graph_path());
    g->open_reverse();
    if (stall) {
      sem::fault_config fc;
      fc.p_stall = 1.0;
      injector_ = std::make_unique<sem::fault_injector>(fc);
      g->set_fault_injector(injector_.get());
    }
    return g;
  }

  static std::filesystem::path* dir_;
  static csr32* im_;
  std::unique_ptr<sem::fault_injector> injector_;
};

std::filesystem::path* SemGraphTest::dir_ = nullptr;
csr32* SemGraphTest::im_ = nullptr;

class RunPaths : public SemGraphTest,
                 public ::testing::WithParamInterface<run_path> {
 protected:
  any_job submit(engine& eng, const graph_t& g, traversal_options o) {
    return GetParam().submit(eng, g, ckpt_path(), std::move(o));
  }
};

TEST_P(RunPaths, DeadlineOverStalledSemGraph) {
  const auto g = open_graph(true);
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  any_job j = submit(eng, *g, threads(4).with_deadline_ms(100));
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::deadline_exceeded) << e.what();
  }
  EXPECT_EQ(j.stats().outcome, "deadline_exceeded");
  EXPECT_EQ(eng.counters().deadline_exceeded, 1u);
  expect_conserved(eng);
}

TEST_P(RunPaths, CancelEndsCancelled) {
  const auto g = open_graph(true);
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  any_job j = submit(eng, *g, threads(4));
  j.cancel();
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::cancelled) << e.what();
  }
  EXPECT_EQ(j.stats().outcome, "cancelled");
  expect_conserved(eng);
}

TEST_P(RunPaths, AdmissionRejectsASecondJob) {
  const auto g = open_graph(true);
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = service::admission_policy::reject});
  any_job hog = submit(eng, *g, threads(4));
  try {
    (void)submit(eng, *g, threads(4));
    FAIL() << "expected admission_rejected";
  } catch (const service::admission_rejected& e) {
    EXPECT_EQ(e.why(), service::admission_rejected::kind::queue_full);
  }
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
  eng.wait_idle();
  const auto c = eng.counters();
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.cancelled, 1u);
  expect_conserved(eng);
}

TEST_P(RunPaths, JobStatsCarryLabelAndWork) {
  const auto g = open_graph(false);
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  any_job j = submit(eng, *g, threads(4));
  j.get();
  const service::job_stats st = j.stats();
  EXPECT_EQ(st.label, GetParam().label);
  EXPECT_EQ(st.outcome, "completed");
  EXPECT_GT(st.visits, 0u);
  EXPECT_GT(st.edge_inspections, 0u);
  EXPECT_GT(st.run_seconds, 0.0);
  EXPECT_EQ(eng.counters().completed, 1u);
  expect_conserved(eng);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceContract, RunPaths, ::testing::ValuesIn(run_paths()),
    [](const ::testing::TestParamInfo<run_path>& info) {
      return std::string(info.param.label);
    });

TEST_F(SemGraphTest, CheckpointAtDeadlineResumesToSerialLabels) {
  std::filesystem::remove(ckpt_path());
  {
    const auto stalled = open_graph(true);
    try {
      async_bfs_checkpointed(*stalled, vertex32{0}, ckpt_path(),
                             threads(4).with_deadline_ms(100));
      FAIL() << "expected traversal_aborted";
    } catch (const traversal_aborted& e) {
      EXPECT_EQ(e.reason(), abort_reason::deadline_exceeded) << e.what();
    }
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt_path()));
  const auto cp = load_checkpoint<vertex32>(ckpt_path(), checkpoint_kind::bfs);
  const auto healthy = open_graph(false);
  EXPECT_EQ(resume_bfs(*healthy, cp, threads(4)).level,
            serial_bfs(*im_, vertex32{0}).level);
}

TEST_F(SemGraphTest, CancelBeforeStartResumesToSerialLabels) {
  std::filesystem::remove(ckpt_path());
  const auto stalled = open_graph(true);
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  // A wedged job holds every pool lane, so the checkpointed job's gang
  // stays queued behind it and is cancelled before any visitor ran.
  auto hog = eng.submit_bfs(*stalled, vertex32{0}, threads(4));
  auto j = eng.submit_checkpointed_bfs(*im_, vertex32{0}, ckpt_path(),
                                       threads(4));
  j.cancel();
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::cancelled) << e.what();
  }
  EXPECT_EQ(j.stats().visits, 0u);
  ASSERT_TRUE(std::filesystem::exists(ckpt_path()));
  const auto cp = load_checkpoint<vertex32>(ckpt_path(), checkpoint_kind::bfs);
  EXPECT_EQ(cp.label[0], 0u);
  EXPECT_EQ(resume_bfs(*im_, cp, threads(4)).level,
            serial_bfs(*im_, vertex32{0}).level);
  expect_conserved(eng);
}

TEST_F(SemGraphTest, EveryRunPathConservesAgainstTheRegistry) {
  const auto g = open_graph(false);
  telemetry::metrics_registry reg;
  engine eng({.pool_threads = 4, .defaults = threads(4).with_metrics(&reg)});
  // The incremental path repairs a full BFS after a one-edge insert.
  delta_overlay<graph_t> ov(*g);
  const bfs_result<vertex32> prior =
      eng.submit_bfs(ov.snapshot(), vertex32{0}).get();
  delta_batch<vertex32> d;
  d.insert(1, 2);
  ov.apply(d);
  const auto view = ov.snapshot();

  struct path {
    std::string label;
    std::string work;  // prefix of the job's <algo>.* work counters
    std::function<any_job()> submit;
  };
  std::vector<path> paths = {
      {"bfs", "bfs", [&] { return erase(eng.submit_bfs(*g, vertex32{0})); }},
      {"sssp", "sssp",
       [&] { return erase(eng.submit_sssp(*g, vertex32{0})); }},
      {"cc", "cc", [&] { return erase(eng.submit_cc(*g)); }},
      {"msbfs", "msbfs",
       [&] {
         return erase(eng.submit_multi_source_bfs(
             *g, std::vector<vertex32>{0, 5, 9}));
       }},
      {"incremental_bfs", "incremental_bfs",
       [&] {
         return erase(eng.submit_incremental_bfs(view, d, prior));
       }},
  };
  // The phased paths of the RunPaths suite; checkpointed and resumed jobs
  // record the work counters of the algorithm they run.
  for (const run_path& p : run_paths()) {
    const std::string label = p.label;
    const std::string work = label.starts_with("hybrid")
                                 ? label
                                 : label.substr(label.find('_') + 1);
    paths.push_back({label, work, [&eng, &g, p, this] {
                       return p.submit(eng, *g, ckpt_path(), threads(4));
                     }});
  }

  for (const path& p : paths) {
    SCOPED_TRACE(p.label);
    const telemetry::metrics_snapshot before = reg.scrape();
    any_job j = p.submit();
    j.get();
    const telemetry::metrics_snapshot after = reg.scrape();
    const auto delta = [&](const std::string& name) {
      return after.value_of(name) - before.value_of(name);
    };
    const service::job_stats st = j.stats();
    EXPECT_EQ(st.label, p.label);
    EXPECT_EQ(st.pushes, delta("queue.pushes"));
    EXPECT_EQ(st.flushes, delta("queue.flushes"));
    EXPECT_EQ(st.wakeups, delta("queue.wakeups"));
    // Hybrid job visits also count the bottom-up sweeps' work, which is no
    // queue visit.
    if (!p.label.starts_with("hybrid")) {
      EXPECT_EQ(st.visits, delta("queue.visits"));
    }
    EXPECT_GT(st.visits, 0u);
    EXPECT_EQ(delta(p.work + ".visits"), st.visits);
  }
  expect_conserved(eng);
}

}  // namespace
}  // namespace asyncgt
