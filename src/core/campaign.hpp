// core::Campaign — many optimizer sessions over one evaluation stack.
//
// A campaign is the unit of real sizing work (Table II is 3 testcases x 3
// algorithms x 3 verification methods x several seeds): a list of RunSpecs,
// each turned into a step-driven session via core::make_optimizer, driven
// round-robin over the shared process-wide thread pool with fair scheduling,
// per-session budgets (RunSpec::budget) and a campaign-wide simulation cap,
// aggregated observer events, and a CampaignResult table keyed by spec.
//
//   core::SweepSpec sweep;
//   sweep.base.testcase = circuits::Testcase::Sal;
//   sweep.seeds = {1, 2, 3, 4, 5};
//   sweep.algorithms = core::all_algorithms();
//   core::Campaign campaign(sweep);
//   const core::CampaignResult& table = campaign.run();
//
// Checkpoint/resume: save() serializes the campaign — config, cursor, every
// session's spec (the way RunSpec already round-trips through text), its
// step count, the full result of each terminal session, and the full
// serialized optimizer state of each session that has stepped — to a text
// format with one version (glova-campaign v4).  load() restores those
// sessions O(1) from their state, without replaying a single optimizer
// step, and builds the not-yet-stepped ones fresh.  A resumed campaign
// produces bit-identical results to an uninterrupted one;
// tests/test_campaign.cpp and tests/test_resume_state.cpp pin that parity.
// The one caveat: wall-clock budgets (RunSpec::budget.max_wall_seconds) are
// inherently timing dependent — a spec that relies on one resumes correctly
// but may not stop at the same step (see docs/architecture.md).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/run_spec.hpp"

namespace glova::core {

/// Cartesian sweep description: `expand()` produces one RunSpec per element
/// of testcases x algorithms x methods x seeds, all other fields copied from
/// `base`.  Empty axis vectors default to the base spec's value, so a
/// default-constructed SweepSpec expands to exactly {base}.
struct SweepSpec {
  RunSpec base;                                ///< template for every expanded spec
  std::vector<circuits::Testcase> testcases;   ///< empty = {base.testcase}
  std::vector<Algorithm> algorithms;           ///< empty = {base.algorithm}
  std::vector<VerifMethod> methods;            ///< empty = {base.method}
  std::vector<std::uint64_t> seeds;            ///< empty = {base.seed}

  /// Expanded specs in testcase-major, seed-minor order (Table II reading
  /// order: block, row, column, then independent runs).
  [[nodiscard]] std::vector<RunSpec> expand() const;

  /// Canonical one-line form: the base RunSpec's "key=value" tokens followed
  /// by one "sweep.<axis>=a,b,c" token per non-empty axis vector.
  /// from_string() parses it back losslessly, so sweeps travel through the
  /// same text channels (queues, CLIs, glova-serve jobs) RunSpecs do.
  [[nodiscard]] std::string to_string() const;
  static SweepSpec from_string(std::string_view text);  ///< throws on bad input

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// Campaign-level knobs.  Per-session budgets live on each RunSpec.
struct CampaignConfig {
  /// Campaign-wide cap on *requested* simulations summed over every session
  /// (the paper's "# Simulation" semantics).  Checked after every scheduling
  /// turn, so the campaign stops within one turn of the cap: exceeding it
  /// cancels every unfinished session with termination
  /// "campaign-simulation-budget".  0 = unlimited.
  std::uint64_t max_total_simulations = 0;
  /// Session step() calls per scheduling turn before the round-robin cursor
  /// moves on.  1 = strict interleaving; larger values trade fairness for
  /// fewer session switches.  0 is treated as 1.
  std::size_t steps_per_turn = 1;
  /// Per-session retry budget for throwing steps.  A session whose step()
  /// throws is rebuilt and deterministically replayed to its recorded step
  /// count (sessions are fixed-seed deterministic), then resumes; only when
  /// the budget is exhausted — a deterministic failure re-throws on every
  /// retry — is it retired as Failed.  0 = retire on the first throw (legacy).
  std::size_t max_session_retries = 0;
  /// Directory for persistent memo-cache files (empty = off).  Every session
  /// whose spec leaves engine.cache_path unset gets one assigned here, named
  /// by its (testcase, backend, numerics-config) tag, so a campaign re-run —
  /// or a glova-serve restart — re-serves previously simulated points with
  /// zero evaluations.  A spec with its own cache_path keeps it.  Saved in
  /// checkpoints and restored by load().
  std::string cache_dir;
  /// Testbench factory override (custom circuits, failure-injection tests).
  /// Default: the circuits registry, with one shared testbench instance per
  /// (testcase, backend) — testbenches are stateless-const, so sharing is
  /// result-identical to per-session construction.  A campaign loaded from a
  /// checkpoint needs the same factory passed to load().
  std::function<circuits::TestbenchPtr(const RunSpec&)> make_testbench;
};

/// Lifecycle of one campaign session.
enum class SessionState {
  Pending,   ///< not yet stepped
  Running,   ///< mid-optimization
  Finished,  ///< terminated with a well-formed result (verified, capped, ...)
  Failed,    ///< a step threw; `error` holds the exception text
};

[[nodiscard]] const char* to_string(SessionState state);

/// One row of the campaign result table.
struct CampaignEntry {
  RunSpec spec;                                ///< the key: what was run
  SessionState state = SessionState::Pending;
  std::size_t steps = 0;                       ///< completed step() calls
  std::size_t retries = 0;                     ///< throw-and-replay recoveries
  /// Valid when state is Finished (full result) or Failed (partial result up
  /// to the failing step, termination == "campaign-session-error").
  GlovaResult result;
  std::string error;                           ///< exception text when Failed
};

/// Aggregated campaign outcome, keyed by spec.
struct CampaignResult {
  std::vector<CampaignEntry> entries;          ///< campaign order == spec order
  std::uint64_t total_simulations = 0;         ///< summed requested sims
  std::size_t finished = 0;                    ///< entries with state Finished
  std::size_t failed = 0;                      ///< entries with state Failed
  std::size_t session_retries = 0;             ///< summed throw-and-replay recoveries

  /// First entry whose spec equals `spec` (RunSpec equality), or nullptr.
  [[nodiscard]] const CampaignEntry* find(const RunSpec& spec) const;
};

/// Aggregated progress callbacks: per-iteration events from every session
/// funnel through one observer, tagged with the session index and spec.
/// Callbacks run on the driving thread (the one calling Campaign::step()).
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;
  /// The session is about to take its first step.
  virtual void on_session_start(std::size_t /*index*/, const RunSpec& /*spec*/) {}
  /// One session iteration completed (forwarded RunObserver::on_iteration).
  virtual void on_iteration(std::size_t /*index*/, const RunSpec& /*spec*/,
                            const IterationTrace& /*trace*/, const EngineStats& /*stats*/) {}
  /// The session terminated with a well-formed result.
  virtual void on_session_finish(std::size_t /*index*/, const RunSpec& /*spec*/,
                                 const GlovaResult& /*result*/) {}
  /// A session step threw; the session is retired with a partial result.
  virtual void on_session_error(std::size_t /*index*/, const RunSpec& /*spec*/,
                                const std::string& /*error*/) {}
};

/// Multi-session scheduler: constructs one session per spec and round-robin
/// step()s them to completion.  Sessions are independent (each owns its
/// EvaluationEngine and RNG streams) and share the process-wide simulation
/// thread pool plus, by default, one testbench per (testcase, backend), so
/// interleaving order never changes any session's numbers — only when the
/// campaign-wide budget trips.
class Campaign {
 public:
  /// One session per spec, in order.  Validates every spec up front (throws
  /// std::invalid_argument like make_optimizer).  An empty list is a valid,
  /// already-done campaign.
  explicit Campaign(std::vector<RunSpec> specs, CampaignConfig config = {});
  /// Convenience: Campaign(sweep.expand(), config).
  explicit Campaign(const SweepSpec& sweep, CampaignConfig config = {});

  Campaign(Campaign&&) noexcept;
  Campaign& operator=(Campaign&&) noexcept;
  ~Campaign();

  /// One fair-scheduling turn: advance the round-robin cursor to the next
  /// live session, step() it up to steps_per_turn times, then enforce the
  /// campaign-wide budget.  Returns true if any work was done, false once
  /// every session is terminal.
  bool step();

  /// Drive step() until done; returns the final result table.
  const CampaignResult& run();

  /// True once every session is Finished or Failed.
  [[nodiscard]] bool done() const;

  [[nodiscard]] std::size_t session_count() const;
  /// Sessions not yet terminal (Pending or Running).
  [[nodiscard]] std::size_t sessions_remaining() const;
  /// Requested simulations summed over every session so far.
  [[nodiscard]] std::uint64_t total_simulations() const;

  /// The result table.  Valid only once done(); throws std::logic_error
  /// while sessions are still live (mirrors Optimizer::result()).
  [[nodiscard]] const CampaignResult& result() const;

  void add_observer(std::shared_ptr<CampaignObserver> observer);

  // ---- checkpoint / resume ------------------------------------------------

  /// Serialize the whole campaign (versioned text format, see
  /// docs/architecture.md#checkpoint-format) so a later load() can resume
  /// it.  Callable at any point between step() calls.
  void save(std::ostream& os) const;
  /// save() to a file, crash-safely: the checkpoint is written to a
  /// temporary sibling (`path` + ".tmp") and atomically renamed over `path`
  /// only after the write fully succeeded, so an interrupted save can never
  /// leave a truncated checkpoint where a good one stood.  Throws
  /// std::runtime_error when the file cannot be written.
  void save_file(const std::string& path) const;

  /// Reconstruct a campaign from save() output.  Terminal sessions restore
  /// their recorded results directly; sessions that have stepped restore
  /// O(1) from their serialized optimizer state (zero step() replays), and
  /// the rest are built fresh via make_optimizer.  Resuming continues
  /// bit-identically (fixed seeds, no wall-clock budgets).  `make_testbench`
  /// must match the factory the saved campaign was constructed with (empty =
  /// registry default).  Reads only the current format version; throws
  /// std::runtime_error naming that version on any other, and on malformed
  /// input (including a `resume replay` record after a non-zero step
  /// count).
  static Campaign load(std::istream& is,
                       std::function<circuits::TestbenchPtr(const RunSpec&)> make_testbench = {});
  /// load() from a file; throws std::runtime_error when unreadable.
  static Campaign load_file(
      const std::string& path,
      std::function<circuits::TestbenchPtr(const RunSpec&)> make_testbench = {});

 private:
  struct Session;
  struct Hub;
  class IterationForwarder;

  Campaign();  // for load()

  [[nodiscard]] circuits::TestbenchPtr testbench_for(const RunSpec& spec);
  [[nodiscard]] std::unique_ptr<Optimizer> build_optimizer(const RunSpec& spec);
  void attach_forwarder(std::size_t index);
  /// Rebuild session `index` from its spec and deterministically replay it to
  /// its recorded step count.  Returns false — leaving
  /// the session untouched — when the replay itself throws or falls short.
  [[nodiscard]] bool retry_session(std::size_t index);
  void retire_finished(std::size_t index);
  void retire_failed(std::size_t index, std::string error);
  void enforce_campaign_budget();
  [[nodiscard]] std::size_t next_live(std::size_t from) const;

  CampaignConfig config_;
  std::vector<Session> sessions_;
  std::size_t cursor_ = 0;  ///< round-robin position: next session to consider
  std::shared_ptr<Hub> hub_;
  /// Default-factory testbench cache: one instance per (testcase, backend).
  std::vector<std::pair<std::pair<int, int>, circuits::TestbenchPtr>> shared_benches_;
  mutable CampaignResult result_;
  mutable bool result_valid_ = false;
};

}  // namespace glova::core
