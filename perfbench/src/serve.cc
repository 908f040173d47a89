// serve-mix: a closed loop of 2 connections to wydb_serve. Cache hits
// (canonical key, cache lookup, countersigning) sit beside writes (search,
// cache insert, journal append), so a hit-path gain that slows the miss
// path shows.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/certificate.h"
#include "analysis/safety_checker.h"
#include "core/canonical.h"
#include "gen.h"
#include "io/text_format.h"
#include "proc.h"
#include "serve/journal.h"
#include "serve/verdict_cache.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Two connections (and two server sessions) leave the other CPUs to the
// system. With three, the connections' pool sweeps drift apart and
// resubmissions fall out of the 128-entry cache; with four, the server's
// sessions take every CPU and a request's latency measures the scheduler.
constexpr int kConns = 2;
// Set-ups before the timed loop, and as many again after it.
constexpr int kSetupRepeats = 10;
constexpr int kJournalFsync = 8;  // wydb_serve's default, passed explicitly.
constexpr int kCacheEntries = 128;  // wydb_serve's default capacity.
// The server's peak RSS is read when the timed loop has this many
// responses, so a faster server is not charged for the heap its extra
// requests leave behind.
constexpr uint64_t kRssAtResponses = 50000;
constexpr double kWindowS = 0.5;  // See RunServeMix.

enum Source { kCache, kIncremental, kFull, kError, kSources };
const char* const kSourceNames[kSources] = {"cache", "incremental", "full", "error"};

const char* KindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kHit: return "resubmission";
    case RequestKind::kAddLatch: return "certified addition";
    case RequestKind::kAddRefuted: return "refuted addition";
    case RequestKind::kRemove: return "removal";
    case RequestKind::kFresh: return "new system";
  }
  return "?";
}

/// One blocking connection speaking the wydb_serve line protocol.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    QuickAck();
    return true;
  }
  /// Sends one certify request and reads its response up to the "." line.
  bool Certify(const std::string& text, std::string* first_line) {
    return Roundtrip("certify\n" + text + "end\n", first_line);
  }
  /// Sends `req` and reads the response up to its "." line.
  bool Roundtrip(const std::string& req, std::string* first_line) {
    for (size_t off = 0; off < req.size();) {
      const ssize_t n = send(fd_, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    first_line->clear();
    bool first = true;
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl == std::string::npos) {
        char chunk[8192];
        QuickAck();
        const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (line == ".") return true;
      if (first) *first_line = line;
      first = false;
    }
  }

 private:
  // wydb_serve writes a response line by line with Nagle's algorithm on:
  // after the first segment it holds each small write until the previous
  // one is acknowledged. A client that delays its ACKs (the Linux default)
  // then adds about 40 ms to every multi-line response, which would hide
  // all of the server's own work. The kernel clears TCP_QUICKACK on its
  // own, so it is set again before every read.
  void QuickAck() {
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  }

  int fd_ = -1;
  std::string buf_;
};

int FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

/// Parses "verdict: certified=yes|no source=..." into source and verdict.
Source ParseVerdict(const std::string& line, bool* certified) {
  if (line.rfind("verdict: certified=", 0) != 0) return kError;
  *certified = line.compare(19, 3, "yes") == 0;
  const size_t src = line.find("source=");
  if (src == std::string::npos) return kError;
  const std::string s = line.substr(src + 7, line.find(' ', src) - src - 7);
  if (s == "cache") return kCache;
  if (s == "incremental") return kIncremental;
  if (s == "full") return kFull;
  return kError;
}

struct Sample {
  RequestKind kind;
  Source source;
  double us;
  uint64_t states;  ///< States the answering search visited (0: none ran).
  double done_s;    ///< When the response arrived, from the loop's start.
};

uint64_t StatesOf(const std::string& line) {
  const size_t at = line.find(" states=");
  return at == std::string::npos ? 0 : std::strtoull(line.c_str() + at + 8, nullptr, 10);
}

struct ServerProc {
  pid_t pid = -1;
  int port = -1;
};

/// Starts wydb_serve on a fresh journal and waits until it accepts.
bool StartServer(const RunConfig& cfg, const std::string& journal, ServerProc* s) {
  unlink(journal.c_str());
  s->port = FreePort();
  s->pid = StartChild({cfg.tools_dir + "/wydb_serve", "--port", std::to_string(s->port),
                       "--sessions", std::to_string(kConns), "--journal", journal,
                       "--journal-fsync", std::to_string(kJournalFsync)},
                      cfg.work_dir + "/serve.log");
  if (s->pid < 0) return false;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    int status = 0;
    if (waitpid(s->pid, &status, WNOHANG) == s->pid) {
      s->pid = -1;
      return false;
    }
    // Ready once a session has answered a request: a bare connect can
    // land in the listen backlog before the session workers run.
    Conn probe;
    std::string line;
    if (probe.Connect(s->port) && probe.Roundtrip("stats\n", &line)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StopChild(s->pid, 1000);
  s->pid = -1;
  return false;
}

bool ExpectedPool(const RunConfig& cfg, const std::vector<GenSystem>& pool, size_t i) {
  return (cfg.inject_wrong_verdict && i == 0) ? !pool[i].certified() : pool[i].certified();
}

/// The closed loop: kConns connections, each sending its next request
/// only after the previous response. Sets *rss_kb to the server's peak
/// RSS at the kRssAtResponses-th response (0 if the run stops short).
/// Returns the wall time.
double ClosedLoop(const RunConfig& cfg, const std::vector<GenSystem>& pool, pid_t server,
                  int port, double seconds, std::vector<Sample>* samples, long* rss_kb,
                  RunResult* r) {
  std::atomic<uint64_t> responses{0};
  *rss_kb = 0;
  std::vector<std::vector<Sample>> per(kConns);
  std::vector<uint64_t> failed(kConns, 0);
  std::mutex notes_mu;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      if (!conn.Connect(port)) {
        ++failed[c];
        return;
      }
      RequestStream stream(&pool, cfg.seed, c, kConns);
      while (Clock::now() < deadline) {
        const Request req = stream.Next();
        std::string line;
        const auto a = Clock::now();
        const bool ok = conn.Certify(req.text, &line);
        const double us = MicrosBetween(a, Clock::now());
        bool certified = false;
        const Source src = ok ? ParseVerdict(line, &certified) : kError;
        if (src == kError || certified != req.expect_certified) {
          if (++failed[c] <= 2) {
            const std::string path = cfg.work_dir + "/failed-" + std::to_string(c) + "-" +
                                     std::to_string(failed[c]) + ".wydb";
            WriteFile(path, req.text);
            std::lock_guard<std::mutex> lock(notes_mu);
            r->notes.push_back(std::string("FAILED ") + KindName(req.kind) + " (expected certified=" +
                               (req.expect_certified ? "yes" : "no") + ") " + path + ": " + line);
          }
        }
        per[c].push_back({req.kind, src, us, StatesOf(line), SecondsSince(t0)});
        if (++responses == kRssAtResponses) *rss_kb = PeakRssKb(server);
        if (!ok) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = SecondsSince(t0);
  for (int c = 0; c < kConns; ++c) {
    samples->insert(samples->end(), per[c].begin(), per[c].end());
    r->attempted += per[c].size();
    r->failed += failed[c];
  }
  return wall;
}

std::vector<double> LatenciesOf(const std::vector<Sample>& samples, int source) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (source < 0 || s.source == source) out.push_back(s.us);
  }
  return out;
}

// --- Traced in-process replay of Server::HandleCertify. ----------------

struct ReplayState {
  wydb::VerdictCache cache{kCacheEntries};
  std::mutex journal_mu;
  std::unique_ptr<wydb::Journal> journal;
  uint64_t appends = 0;
  std::atomic<uint64_t> keys{0}, incomplete_keys{0};
  std::atomic<uint64_t> searches{0}, search_states{0}, store_bytes{0}, interned{0};
  std::atomic<uint64_t> delta_searches{0}, delta_skipped{0};
};

/// The request's witness through a delta match, as the server's private
/// MapEntryWitness does: canonical slot -> entry transaction -> request.
wydb::Result<wydb::SafetyViolation> TransferWitness(const wydb::DeltaMatch& m,
                                                    const wydb::TransactionSystem& sys) {
  wydb::Schedule sched;
  for (const auto& [slot, node] : m.bundle.witness) {
    if (slot < 0 || slot >= static_cast<int>(m.entry_txn_perm.size())) {
      return wydb::Status::InvalidArgument("witness slot out of range");
    }
    const int txn = m.request_txn_of_entry[m.entry_txn_perm[slot]];
    if (txn < 0 || node < 0 || node >= sys.txn(txn).num_steps()) {
      return wydb::Status::FailedPrecondition("witness does not transfer");
    }
    sched.push_back(wydb::GlobalNode{txn, node});
  }
  return wydb::ValidateViolation(sys, std::move(sched));
}

/// Certifies `text` through the calls Server::HandleCertify makes, in its
/// order. Returns the answer source; kError on failure.
Source ReplayCertify(ReplayState* st, const std::string& text, SpanLog* log, uint64_t id,
                     bool* certified) {
  ScopedSpan request(log, "serve.request", id);
  auto parsed = [&] {
    ScopedSpan s(log, "io.ParseWorkload", id);
    return wydb::ParseWorkload(text);
  }();
  if (!parsed.ok()) return kError;
  const wydb::TransactionSystem& sys = *parsed->owned.system;
  auto key = [&] {
    ScopedSpan s(log, "core.CanonicalSystemKey", id);
    return wydb::CanonicalSystemKey(sys);
  }();
  if (!key.ok()) return kError;
  ++st->keys;
  if (!key->complete) ++st->incomplete_keys;

  auto hit = [&] {
    ScopedSpan s(log, "serve.VerdictCache::Find", id);
    return st->cache.Find(*key);
  }();
  if (hit) {
    if (hit->certified) {
      *certified = true;
      return kCache;
    }
    ScopedSpan s(log, "serve.RealizeWitness", id);
    if (wydb::RealizeWitness(*hit, *key, sys).ok()) {
      *certified = false;
      return kCache;
    }
  }
  const wydb::SystemProfile profile = [&] {
    ScopedSpan s(log, "serve.ProfileOf", id);
    return wydb::ProfileOf(sys);
  }();
  auto finish = [&](const wydb::SafetyReport& report, Source source) {
    wydb::CertificateBundle bundle = [&] {
      ScopedSpan s(log, "analysis.MakeCertificate", id);
      return wydb::MakeCertificate(*key, report);
    }();
    *certified = bundle.certified;
    {
      ScopedSpan s(log, "serve.VerdictCache::Insert", id);
      st->cache.Insert(std::move(*key), bundle, profile);
    }
    const std::string record = [&] {
      ScopedSpan s(log, "analysis.SerializeCertificate", id);
      return wydb::SerializeCertificate(bundle);
    }();
    std::lock_guard<std::mutex> lock(st->journal_mu);
    {
      ScopedSpan s(log, "serve.Journal::Append", id);
      if (!st->journal->Append(record).ok()) return kError;
    }
    if (++st->appends % kJournalFsync == 0) {
      ScopedSpan s(log, "serve.Journal::Sync", id);
      if (!st->journal->Sync().ok()) return kError;
    }
    return source;
  };
  auto search = [&](wydb::SafetyCheckOptions opts) -> wydb::Result<wydb::SafetyReport> {
    ScopedSpan s(log, "analysis.CheckSafeAndDeadlockFree", id);
    auto report = wydb::CheckSafeAndDeadlockFree(sys, opts);
    if (report.ok()) {
      ++st->searches;
      st->search_states += report->states_visited;
      st->store_bytes += report->store_bytes;
      st->interned += report->states_interned;
    }
    return report;
  };

  auto match = [&] {
    ScopedSpan s(log, "serve.VerdictCache::FindDelta", id);
    return st->cache.FindDelta(profile);
  }();
  if (match) {
    if (match->removed && match->bundle.certified) {
      wydb::SafetyReport derived;
      derived.holds = true;
      return finish(derived, kIncremental);
    }
    if (!match->bundle.certified) {
      auto violation = [&] {
        ScopedSpan s(log, "serve.ValidateViolation", id);
        return TransferWitness(*match, sys);
      }();
      if (violation.ok()) {
        wydb::SafetyReport derived;
        derived.holds = false;
        derived.violation = std::move(*violation);
        return finish(derived, kIncremental);
      }
    } else if (match->added) {
      wydb::SafetyCheckOptions opts;
      opts.engine = wydb::SearchEngine::kIncremental;
      opts.delta_txn = match->delta_index;
      auto report = search(opts);
      if (!report.ok()) return kError;
      ++st->delta_searches;
      st->delta_skipped += report->delta_skipped_tests;
      return finish(*report, kIncremental);
    }
  }
  auto report = search(wydb::SafetyCheckOptions{});
  if (!report.ok()) return kError;
  return finish(*report, kFull);
}

bool OpenReplay(const RunConfig& cfg, const std::vector<GenSystem>& pool, const char* name,
                ReplayState* st) {
  const std::string path = cfg.work_dir + "/replay-" + name + ".wyj";
  unlink(path.c_str());
  wydb::JournalOptions jopts;
  jopts.fsync_every = 0;  // Sync is called explicitly, so it gets its own span.
  wydb::JournalRecovery recovery;
  auto journal = wydb::Journal::Open(path, jopts, &recovery);
  if (!journal.ok()) return false;
  st->journal = std::make_unique<wydb::Journal>(std::move(*journal));
  SpanLog off(false);
  for (size_t i = 0; i < pool.size(); ++i) {
    bool certified = false;
    if (ReplayCertify(st, Render(pool[i]), &off, i, &certified) == kError) return false;
  }
  // Count only the timed requests.
  for (auto* n : {&st->keys, &st->incomplete_keys, &st->searches, &st->search_states,
                  &st->store_bytes, &st->interned, &st->delta_searches, &st->delta_skipped}) {
    *n = 0;
  }
  return true;
}

/// Replays the next `n` requests of each connection's stream, each
/// connection from its own thread. Returns the wall time.
double ReplayChunk(ReplayState* st, std::vector<RequestStream>* streams, uint64_t n,
                   std::vector<std::unique_ptr<SpanLog>>* logs, std::vector<uint64_t>* serial,
                   RunResult* r) {
  std::vector<uint64_t> failed(kConns, 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; i < n; ++i) {
        const Request req = (*streams)[c].Next();
        bool certified = false;
        const uint64_t id = (uint64_t{1} << 40) * c + (*serial)[c]++;
        const Source src = ReplayCertify(st, req.text, (*logs)[c].get(), id, &certified);
        if (src == kError || certified != req.expect_certified) ++failed[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r->attempted += n * kConns;
  for (uint64_t f : failed) r->failed += f;
  return SecondsSince(t0);
}

void Traced(const RunConfig& cfg, const std::vector<GenSystem>& pool,
            const std::vector<Sample>& samples, RunResult* r) {
  auto pct = [&](int source, double q) {
    std::vector<double> v = LatenciesOf(samples, source);
    if (!TailSupported(v.size(), q)) {
      r->notes.push_back(cfg.workload + ": " + std::to_string(v.size()) + " " +
                         (source < 0 ? "requests" : kSourceNames[source]) + " answers: p" +
                         std::to_string(static_cast<int>(q * 100)) +
                         " has fewer than 10 samples beyond it");
    }
    return Percentile(&v, q);
  };
  r->Set("serve.cache_p50_us", pct(kCache, 0.50), "us");
  r->Set("serve.cache_p99_us", pct(kCache, 0.99), "us");
  r->Set("serve.incremental_p50_us", pct(kIncremental, 0.50), "us");
  r->Set("serve.incremental_p99_us", pct(kIncremental, 0.99), "us");
  r->Set("serve.full_p50_us", pct(kFull, 0.50), "us");
  r->Set("serve.full_p99_us", pct(kFull, 0.99), "us");
  uint64_t resubmits = 0, cached = 0, deltas = 0, incremental = 0;
  for (const Sample& s : samples) {
    if (s.kind == RequestKind::kHit) {
      ++resubmits;
      cached += s.source == kCache;
    } else if (s.kind != RequestKind::kFresh) {
      ++deltas;
      incremental += s.source == kIncremental;
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r->Set("serve.hit_ratio", ratio(static_cast<double>(cached), static_cast<double>(resubmits)), "frac");
  r->Set("serve.incremental_ratio", ratio(static_cast<double>(incremental), static_cast<double>(deltas)), "frac");
  const double request_us = Mean(LatenciesOf(samples, -1));
  r->Set("serve.request_us", request_us, "us");

  // Two replays of the same request streams, one untraced and one traced,
  // advance in alternating chunks; their wall-time difference is the
  // tracing overhead.
  std::vector<std::unique_ptr<SpanLog>> off, on;
  std::vector<RequestStream> plain_streams, traced_streams;
  for (int c = 0; c < kConns; ++c) {
    off.push_back(std::make_unique<SpanLog>(false));
    on.push_back(std::make_unique<SpanLog>(true));
    plain_streams.emplace_back(&pool, cfg.seed, c, kConns);
    traced_streams.emplace_back(&pool, cfg.seed, c, kConns);
  }
  ReplayState plain_state, traced_state;
  if (!OpenReplay(cfg, pool, "plain", &plain_state) ||
      !OpenReplay(cfg, pool, "traced", &traced_state)) {
    ++r->failed;
    return;
  }
  const uint64_t chunk = cfg.smoke ? 5 : 25;
  std::vector<uint64_t> plain_serial(kConns, 0), traced_serial(kConns, 0);
  double plain_s = 0, traced_s = 0;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(cfg.seconds / 2));
  for (int round = 0; round == 0 || Clock::now() < deadline; ++round) {
    auto plain = [&] { plain_s += ReplayChunk(&plain_state, &plain_streams, chunk, &off, &plain_serial, r); };
    auto traced = [&] { traced_s += ReplayChunk(&traced_state, &traced_streams, chunk, &on, &traced_serial, r); };
    if (round % 2 == 0) {
      plain();
      traced();
    } else {
      traced();
      plain();
    }
  }
  const ReplayState& st = traced_state;

  std::vector<const SpanLog*> logs;
  for (const auto& l : on) logs.push_back(l.get());
  const auto layers = Summarize(logs);
  auto mean_us = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.MeanSelfUs();
  };
  const double requests = static_cast<double>(layers.at("serve.request").calls);
  r->Set("io.parse_us", mean_us("io.ParseWorkload"), "us");
  r->Set("core.canonical_key_us", mean_us("core.CanonicalSystemKey"), "us");
  r->Set("core.canonical_incomplete", ratio(static_cast<double>(st.incomplete_keys), static_cast<double>(st.keys)), "frac");
  r->Set("serve.cache_find_us", mean_us("serve.VerdictCache::Find"), "us");
  r->Set("serve.countersign_us", mean_us("serve.RealizeWitness"), "us");
  r->Set("serve.find_delta_us", mean_us("serve.VerdictCache::FindDelta"), "us");
  r->Set("serve.delta_skipped_tests", ratio(static_cast<double>(st.delta_skipped), static_cast<double>(st.delta_searches)), "count");
  r->Set("serve.journal_append_us", mean_us("serve.Journal::Append"), "us");
  r->Set("serve.journal_sync_us", mean_us("serve.Journal::Sync"), "us");
  r->Set("serve.journal_bytes_per_verdict",
         ratio(static_cast<double>(st.journal->bytes()), static_cast<double>(st.journal->records())), "B");
  r->Set("analysis.safety_ms", mean_us("analysis.CheckSafeAndDeadlockFree") / 1e3, "ms");
  r->Set("analysis.safety_states", ratio(static_cast<double>(st.search_states), static_cast<double>(st.searches)), "count");
  auto search = layers.find("analysis.CheckSafeAndDeadlockFree");
  r->Set("analysis.safety_ns_per_state",
         search == layers.end() ? 0.0 : ratio(static_cast<double>(search->second.self_ns), static_cast<double>(st.search_states)), "ns");
  r->Set("analysis.bytes_per_state", ratio(static_cast<double>(st.store_bytes), static_cast<double>(st.interned)), "B");
  r->Set("trace.overhead_frac", ratio(traced_s - plain_s, plain_s), "frac");

  // The replay's layer spans must cover its own request spans: time
  // outside every layer span means a call the trace does not see.
  const LayerStat& replay_request = layers.at("serve.request");
  const double replay_us = static_cast<double>(replay_request.total_ns) / 1e3 / requests;
  const double replay_glue_us = replay_request.MeanSelfUs();
  // The client's mean latency, split into the replay's mean layer self
  // times and the rest: the residual is client latency minus replayed
  // layer time (framing, socket, session locking).
  std::string decomposition;
  double layer_sum = 0;
  for (const auto& [name, stat] : layers) {
    if (name == "serve.request") continue;
    const double per_request = static_cast<double>(stat.self_ns) / 1e3 / requests;
    layer_sum += per_request;
    char part[128];
    std::snprintf(part, sizeof(part), " + %s %.3f", name.c_str(), per_request);
    decomposition += part;
  }
  r->Set("serve.residual_us", request_us - layer_sum, "us");
  char head[200];
  std::snprintf(head, sizeof(head),
                "replay coverage (us per request): request span %.3f, layer spans %.3f, "
                "outside every layer span %.3f",
                replay_us, layer_sum, replay_glue_us);
  r->notes.push_back(head);
  std::snprintf(head, sizeof(head), "serve decomposition (us per request): client request_us %.3f = residual %.3f",
                request_us, request_us - layer_sum);
  r->notes.push_back(head + decomposition);
  std::snprintf(head, sizeof(head), "trace: replay of %.0f requests, %.3f s untraced, %.3f s traced",
                requests, plain_s, traced_s);
  r->notes.push_back(head);
  const std::string path = cfg.work_dir + "/trace-" + cfg.workload + ".json";
  if (WriteTrace(path, logs)) r->notes.push_back("trace: spans written to " + path);
}

}  // namespace

/// Set-up: generate the pool, start wydb_serve on a fresh journal, and
/// certify each pool system once, spread over the connections.
bool SetUp(const RunConfig& cfg, const std::string& journal, std::vector<GenSystem>* pool,
           ServerProc* server, RunResult* r) {
  *pool = ServePool(cfg.seed, cfg.smoke);
  if (!StartServer(cfg, journal, server)) {
    r->notes.push_back("wydb_serve did not start; see " + cfg.work_dir + "/serve.log");
    ++r->failed;
    return false;
  }
  std::vector<uint64_t> failed(kConns, 0);
  std::mutex notes_mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      if (!conn.Connect(server->port)) {
        ++failed[c];
        return;
      }
      for (size_t i = c; i < pool->size(); i += kConns) {
        std::string line;
        bool certified = false;
        if (!conn.Certify(Render((*pool)[i]), &line) || ParseVerdict(line, &certified) == kError ||
            certified != ExpectedPool(cfg, *pool, i)) {
          if (++failed[c] == 1) {
            std::lock_guard<std::mutex> lock(notes_mu);
            r->notes.push_back("FAILED pool system " + std::to_string(i) + ": " + line);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r->attempted += pool->size();
  for (uint64_t f : failed) r->failed += f;
  return true;
}

RunResult RunServeMix(const RunConfig& cfg) {
  RunResult r;
  const std::string journal = cfg.work_dir + "/serve.wyj";
  std::vector<GenSystem> pool;
  ServerProc server;
  std::vector<double> setups;
  // The last server started is the one the timed loop uses.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server.pid > 0) StopChild(server.pid, 5000);
    const auto t0 = Clock::now();
    if (!SetUp(cfg, journal, &pool, &server, &r)) {
      r.attempted = std::max<uint64_t>(r.attempted, 1);
      return r;
    }
    setups.push_back(SecondsSince(t0));
  }
  r.notes.push_back(cfg.workload + ": server peak RSS after set-up " +
                    std::to_string(PeakRssKb(server.pid) / 1024) + " MB");

  std::vector<Sample> samples;
  long rss_mark_kb = 0;
  const double wall = ClosedLoop(cfg, pool, server.pid, server.port,
                                 cfg.trace ? cfg.seconds / 2 : cfg.seconds, &samples,
                                 &rss_mark_kb, &r);
  const long end_kb = PeakRssKb(server.pid);
  r.notes.push_back(cfg.workload + ": server peak RSS at response " +
                    std::to_string(kRssAtResponses) + " " +
                    (rss_mark_kb > 0 ? std::to_string(rss_mark_kb / 1024) + " MB" : "(not reached)") +
                    ", at the end " + std::to_string(end_kb / 1024) + " MB");
  const long peak_kb = rss_mark_kb > 0 ? rss_mark_kb : end_kb;
  if (StopChild(server.pid, 10000) != 0) {
    r.notes.push_back("wydb_serve did not drain cleanly");
    ++r.failed;
  }
  // As many set-ups again after the loop, so the set-up samples come from
  // both ends of the run.
  if (!cfg.trace) {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      ServerProc again;
      std::vector<GenSystem> again_pool;
      const auto t0 = Clock::now();
      const bool ok = SetUp(cfg, journal, &again_pool, &again, &r);
      const double took = SecondsSince(t0);
      if (!ok) break;
      setups.push_back(took);
      if (StopChild(again.pid, 10000) != 0) ++r.failed;
    }
  }
  r.Set("setup_s", QuartileBand(setups, false), "s");
  uint64_t by_source[kSources] = {};
  uint64_t max_states = 0;
  for (const Sample& s : samples) {
    ++by_source[s.source];
    max_states = std::max(max_states, s.states);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu responses from %d connections (closed loop), journal_fsync=%d "
                "(the wydb_serve default); sources cache=%llu incremental=%llu full=%llu error=%llu; "
                "largest search %llu states",
                cfg.workload.c_str(), samples.size(), kConns, kJournalFsync,
                static_cast<unsigned long long>(by_source[kCache]),
                static_cast<unsigned long long>(by_source[kIncremental]),
                static_cast<unsigned long long>(by_source[kFull]),
                static_cast<unsigned long long>(by_source[kError]),
                static_cast<unsigned long long>(max_states));
  r.notes.push_back(line);

  if (cfg.trace) {
    Traced(cfg, pool, samples, &r);
    return r;
  }
  // Other tenants of a shared host (and hypervisor steal) only ever slow
  // the loop down, in bursts of seconds. The run is cut into whole windows
  // of kWindowS; for each figure, QuartileBand over the windows estimates
  // the undisturbed server. A change in the program moves every window,
  // so it moves the band too.
  const int windows = std::max(1, static_cast<int>(wall / kWindowS));
  std::vector<std::vector<double>> by_window(windows);
  for (const Sample& s : samples) {
    const int w = static_cast<int>(s.done_s / kWindowS);
    if (w < windows) by_window[w].push_back(s.us);
  }
  std::vector<double> rates, p50, p99;
  size_t fewest = samples.size();
  for (std::vector<double>& v : by_window) {
    fewest = std::min(fewest, v.size());
    rates.push_back(static_cast<double>(v.size()) / std::min(kWindowS, wall));
    p50.push_back(Percentile(&v, 0.50));
    p99.push_back(Percentile(&v, 0.99));
  }
  std::string per_window = cfg.workload + ": windows (responses/s p50 p99):";
  for (size_t i = 0; i < rates.size(); ++i) {
    char w[64];
    std::snprintf(w, sizeof(w), " %.0f/%.0f/%.0f", rates[i], p50[i], p99[i]);
    per_window += w;
  }
  r.notes.push_back(per_window);
  std::snprintf(line, sizeof(line),
                "%s: %d windows of %.1f s, at least %zu responses each%s; tail = p99",
                cfg.workload.c_str(), windows, kWindowS, fewest,
                TailSupported(fewest, 0.99) ? "" : " (too few for p99: <10 beyond it)");
  r.notes.push_back(line);
  std::vector<double> all = LatenciesOf(samples, -1);
  std::snprintf(line, sizeof(line), "%s: whole run %.1f responses/s, p50 %.1f us, p99 %.1f us",
                cfg.workload.c_str(), static_cast<double>(samples.size()) / wall,
                Percentile(&all, 0.50), Percentile(&all, 0.99));
  r.notes.push_back(line);
  r.Set("ops_per_s", QuartileBand(rates, true), "1/s");
  r.Set("latency_p50_us", QuartileBand(p50, false), "us");
  r.Set("latency_tail_us", QuartileBand(p99, false), "us");
  r.Set("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB");
  return r;
}

}  // namespace perfbench
