#include "common/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace mgbr {
namespace fault {
namespace {

struct ArmedInjection {
  Injection spec;
  int64_t hits = 0;    // matching operations seen so far
  bool fired = false;  // each injection fires at most once
};

// All plan state lives behind one mutex; every hook first checks the
// lock-free g_active flag, so the mutex is only ever taken while a
// fault plan is armed (tests and fault-injection runs).
std::mutex& PlanMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<ArmedInjection>& Plan() {
  static std::vector<ArmedInjection>* plan = new std::vector<ArmedInjection>;
  return *plan;
}

// Every hook checks g_active before taking the mutex, but MGBR_FAULT
// is only parsed lazily behind that check — so the flag must start
// true whenever the variable is set, or the first hook would fast-path
// past the parse and the plan would never arm.
bool EnvHasFaultPlan() {
  const char* env = std::getenv("MGBR_FAULT");
  return env != nullptr && env[0] != '\0';
}

std::atomic<bool> g_active{EnvHasFaultPlan()};
bool g_env_parsed = false;  // guarded by PlanMutex()

Counter* InjectedCounter(Injection::Kind kind) {
  static Counter* kill =
      MetricsRegistry::Global().GetCounter("fault.injected_kill");
  static Counter* eio =
      MetricsRegistry::Global().GetCounter("fault.injected_write_eio");
  static Counter* shrt =
      MetricsRegistry::Global().GetCounter("fault.injected_short_write");
  static Counter* flip =
      MetricsRegistry::Global().GetCounter("fault.injected_bitflip");
  static Counter* reio =
      MetricsRegistry::Global().GetCounter("fault.injected_read_eio");
  static Counter* delay =
      MetricsRegistry::Global().GetCounter("fault.injected_delay");
  switch (kind) {
    case Injection::Kind::kKill:
      return kill;
    case Injection::Kind::kWriteEio:
      return eio;
    case Injection::Kind::kWriteShort:
      return shrt;
    case Injection::Kind::kWriteBitFlip:
      return flip;
    case Injection::Kind::kReadEio:
      return reio;
    case Injection::Kind::kDelay:
      return delay;
  }
  return kill;
}

const char* KindName(Injection::Kind kind) {
  switch (kind) {
    case Injection::Kind::kKill:
      return "kill";
    case Injection::Kind::kWriteEio:
      return "eio";
    case Injection::Kind::kWriteShort:
      return "short";
    case Injection::Kind::kWriteBitFlip:
      return "flip";
    case Injection::Kind::kReadEio:
      return "eio-read";
    case Injection::Kind::kDelay:
      return "delay";
  }
  return "?";
}

// "kind@match:at" for the fire-once kinds; a delay has no occurrence
// index, so it reads "delay@point:ms:every" as in its directive.
std::string Describe(const Injection& spec) {
  std::string out = std::string(KindName(spec.kind)) + "@" + spec.match + ":";
  if (spec.kind == Injection::Kind::kDelay) {
    return out + std::to_string(spec.ms) + ":" + std::to_string(spec.every);
  }
  return out + std::to_string(spec.at);
}

// Fault injection is a test/CI facility: every fired injection is
// logged unconditionally (the CI crash-recovery job archives stderr as
// the fault log) and additionally counted when telemetry is on.
void RecordFired(const ArmedInjection& armed, const std::string& target) {
  MGBR_LOG_WARNING("fault: injected ", Describe(armed.spec), " on '", target,
                   "'");
  MGBR_COUNTER_ADD(InjectedCounter(armed.spec.kind), 1);
}

bool ParseDirective(const std::string& directive, Injection* out) {
  const size_t amp = directive.find('@');
  if (amp == std::string::npos) return false;
  const std::string kind = directive.substr(0, amp);
  std::vector<std::string> parts =
      StrSplit(directive.substr(amp + 1), ':');
  if (parts.size() < 2) return false;
  long long at = 0;
  if (!ParseInt64(parts[1], &at)) return false;
  out->match = parts[0];
  out->at = at;
  out->bit = 0;
  if (kind == "kill") {
    out->kind = Injection::Kind::kKill;
  } else if (kind == "eio") {
    out->kind = Injection::Kind::kWriteEio;
  } else if (kind == "short") {
    out->kind = Injection::Kind::kWriteShort;
  } else if (kind == "flip") {
    out->kind = Injection::Kind::kWriteBitFlip;
    long long bit = 0;
    if (parts.size() < 3 || !ParseInt64(parts[2], &bit)) return false;
    out->bit = bit;
  } else if (kind == "eio-read") {
    out->kind = Injection::Kind::kReadEio;
  } else if (kind == "delay") {
    // delay@<point>:<ms>[:<every>] — parts[1] is the duration, not an
    // occurrence index; the optional parts[2] is the firing period.
    out->kind = Injection::Kind::kDelay;
    out->at = 0;
    out->ms = at;
    if (out->ms < 0) return false;
    out->every = 1;
    if (parts.size() >= 3) {
      long long every = 0;
      if (!ParseInt64(parts[2], &every) || every < 1) return false;
      out->every = every;
    }
  } else {
    return false;
  }
  return out->match.empty() ? false : true;
}

void InstallFromEnvLocked() {
  if (g_env_parsed) return;
  g_env_parsed = true;
  const char* env = std::getenv("MGBR_FAULT");
  if (env == nullptr || env[0] == '\0') return;
  for (const std::string& directive : StrSplit(env, ';')) {
    const std::string trimmed = StrTrim(directive);
    if (trimmed.empty()) continue;
    Injection injection;
    if (!ParseDirective(trimmed, &injection)) {
      MGBR_LOG_WARNING("fault: ignoring malformed MGBR_FAULT directive '",
                       trimmed, "'");
      continue;
    }
    Plan().push_back(ArmedInjection{injection, 0, false});
    MGBR_LOG_WARNING("fault: armed ", Describe(injection));
  }
  // A variable that parses to zero injections must also drop the flag,
  // or every subsequent hook would keep taking the plan mutex.
  g_active.store(!Plan().empty(), std::memory_order_relaxed);
}

// Finds the armed injection of `kind` whose match hits on this
// operation. Counts a hit on every armed (unfired) injection of the
// kind that matches `target`.
bool Consume(Injection::Kind kind, const std::string& target,
             bool exact_match, ArmedInjection* fired_out) {
  std::lock_guard<std::mutex> lock(PlanMutex());
  InstallFromEnvLocked();
  for (ArmedInjection& armed : Plan()) {
    if (armed.spec.kind != kind || armed.fired) continue;
    const bool matches = exact_match
                             ? target == armed.spec.match
                             : target.find(armed.spec.match) !=
                                   std::string::npos;
    if (!matches) continue;
    if (armed.hits++ == armed.spec.at) {
      armed.fired = true;
      *fired_out = armed;
      return true;
    }
  }
  return false;
}

// Delay variant of Consume: delays fire repeatedly (every `every`-th
// matching operation, starting with the first) and never set `fired`.
// Returns true with a copy of the armed state so the caller can sleep
// and log outside the plan lock.
bool ConsumeDelay(const std::string& target, ArmedInjection* fired_out) {
  std::lock_guard<std::mutex> lock(PlanMutex());
  InstallFromEnvLocked();
  for (ArmedInjection& armed : Plan()) {
    if (armed.spec.kind != Injection::Kind::kDelay) continue;
    if (target != armed.spec.match) continue;
    const int64_t hit = armed.hits++;
    if (hit % armed.spec.every != 0) continue;
    *fired_out = armed;
    return true;
  }
  return false;
}

}  // namespace

bool Active() { return g_active.load(std::memory_order_relaxed); }

void Install(const Injection& injection) {
  std::lock_guard<std::mutex> lock(PlanMutex());
  Plan().push_back(ArmedInjection{injection, 0, false});
  g_active.store(true, std::memory_order_relaxed);
}

void Clear() {
  std::lock_guard<std::mutex> lock(PlanMutex());
  Plan().clear();
  g_env_parsed = true;  // an explicit Clear() also discards MGBR_FAULT
  g_active.store(false, std::memory_order_relaxed);
}

void InstallFromEnv() {
  std::lock_guard<std::mutex> lock(PlanMutex());
  // An explicit call always re-reads the variable (the lazy hook-side
  // path parses at most once per Clear()).
  g_env_parsed = false;
  InstallFromEnvLocked();
}

void KillPoint(const char* name) {
  if (!Active()) return;
  ArmedInjection fired;
  if (!Consume(Injection::Kind::kKill, name, /*exact_match=*/true,
               &fired)) {
    return;
  }
  RecordFired(fired, name);
  // _Exit: no atexit handlers, no stream flushing — the closest
  // userspace approximation of the process dying on the spot.
  std::_Exit(kKillExitCode);
}

bool OnWrite(const std::string& path, WriteFault* out) {
  if (!Active()) return false;
  for (const Injection::Kind kind :
       {Injection::Kind::kWriteEio, Injection::Kind::kWriteShort,
        Injection::Kind::kWriteBitFlip}) {
    ArmedInjection fired;
    if (Consume(kind, path, /*exact_match=*/false, &fired)) {
      RecordFired(fired, path);
      out->kind = kind;
      out->bit = fired.spec.bit;
      return true;
    }
  }
  return false;
}

bool OnRead(const std::string& path) {
  if (!Active()) return false;
  ArmedInjection fired;
  if (!Consume(Injection::Kind::kReadEio, path, /*exact_match=*/false,
               &fired)) {
    return false;
  }
  RecordFired(fired, path);
  return true;
}

void DelayPoint(const char* name) {
  if (!Active()) return;
  ArmedInjection fired;
  if (!ConsumeDelay(name, &fired)) return;
  RecordFired(fired, name);
  // Sleep outside the plan lock: a long stall at one delay point must
  // not serialize every other fault hook in the process behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(fired.spec.ms));
}

}  // namespace fault
}  // namespace mgbr
