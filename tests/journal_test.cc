// Crash-safety tests of the verdict journal (DESIGN.md §13): frame
// round trips, recovery fuzz (truncation at every byte offset, bit
// flips at every byte of the tail record, duplicate tails), torn-tail
// salvage through Open(), injected write/fsync faults with rollback,
// compaction, and the end-to-end server property the journal exists
// for — a rebuilt server re-serves byte-identical verdicts as cache
// hits, even after a kill-shaped torn tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/certificate.h"
#include "analysis/safety_checker.h"
#include "core/canonical.h"
#include "io/text_format.h"
#include "serve/journal.h"
#include "serve/server.h"

namespace wydb {
namespace {

/// A fresh journal path under the test tmpdir; the file is removed
/// first so every test starts from absence.
std::string TempJournalPath(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string path =
      std::string(base != nullptr ? base : "/tmp") + "/wydb_" + name + "_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  ASSERT_TRUE(out.good());
}

const std::vector<std::string>& SamplePayloads() {
  static const std::vector<std::string>* payloads =
      new std::vector<std::string>{
          "certified: yes\nstates: 12\n",
          "",  // Empty payloads are legal records.
          std::string("binary\0payload\xff\x01", 16),
          std::string(3000, 'x') + "\n",  // Certificate-sized.
      };
  return *payloads;
}

std::string ImageOf(const std::vector<std::string>& payloads) {
  std::string image;
  for (const std::string& p : payloads) image += FrameJournalRecord(p);
  return image;
}

TEST(JournalScanTest, RoundTripsEveryRecord) {
  const auto& payloads = SamplePayloads();
  JournalRecovery rec = ScanJournalImage(ImageOf(payloads));
  EXPECT_EQ(rec.payloads, payloads);
  EXPECT_EQ(rec.valid_bytes, ImageOf(payloads).size());
  EXPECT_EQ(rec.dropped_bytes, 0u);
}

TEST(JournalScanTest, EmptyImageIsEmptyRecovery) {
  JournalRecovery rec = ScanJournalImage("");
  EXPECT_TRUE(rec.payloads.empty());
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_EQ(rec.dropped_bytes, 0u);
}

/// Truncation fuzz: cutting the image at EVERY byte offset must salvage
/// exactly the records that fit whole before the cut — never garbage,
/// never a refusal, and the salvaged prefix must itself be a clean
/// journal (valid_bytes lands on a record boundary).
TEST(JournalScanTest, TruncationAtEveryOffsetSalvagesTheWholePrefix) {
  const auto& payloads = SamplePayloads();
  const std::string image = ImageOf(payloads);
  // Record end offsets, for computing how many records survive a cut.
  std::vector<size_t> ends;
  {
    size_t pos = 0;
    for (const std::string& p : payloads) {
      pos += 12 + p.size();
      ends.push_back(pos);
    }
  }
  for (size_t cut = 0; cut <= image.size(); ++cut) {
    JournalRecovery rec = ScanJournalImage(image.substr(0, cut));
    size_t expect_records = 0;
    while (expect_records < ends.size() && ends[expect_records] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(rec.payloads.size(), expect_records) << "cut at " << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      ASSERT_EQ(rec.payloads[i], payloads[i]) << "cut at " << cut;
    }
    ASSERT_EQ(rec.valid_bytes, expect_records > 0 ? ends[expect_records - 1]
                                                  : 0u)
        << "cut at " << cut;
    ASSERT_EQ(rec.valid_bytes + rec.dropped_bytes, cut);
  }
}

/// Bit-flip fuzz: flipping any single bit anywhere in the LAST record —
/// magic, length, CRC, or payload — must drop exactly that record and
/// keep every earlier one. (A flip in an earlier record drops from that
/// record on; the tail case is the one crash recovery meets.)
TEST(JournalScanTest, BitFlipsInTheTailRecordDropOnlyTheTail) {
  const auto& payloads = SamplePayloads();
  const std::string image = ImageOf(payloads);
  const size_t last_begin = image.size() - (12 + payloads.back().size());
  for (size_t byte = last_begin; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      JournalRecovery rec = ScanJournalImage(mutated);
      ASSERT_EQ(rec.payloads.size(), payloads.size() - 1)
          << "flip byte " << byte << " bit " << bit;
      ASSERT_EQ(rec.valid_bytes, last_begin);
      for (size_t i = 0; i + 1 < payloads.size(); ++i) {
        ASSERT_EQ(rec.payloads[i], payloads[i]);
      }
    }
  }
}

/// A duplicated tail record (a retried append that hit the disk twice)
/// is just two valid records; replay is idempotent at the cache layer.
TEST(JournalScanTest, DuplicateTailRecordsAreBothSalvaged) {
  const auto& payloads = SamplePayloads();
  std::string image = ImageOf(payloads);
  image += FrameJournalRecord(payloads.back());
  JournalRecovery rec = ScanJournalImage(image);
  ASSERT_EQ(rec.payloads.size(), payloads.size() + 1);
  EXPECT_EQ(rec.payloads.back(), payloads.back());
  EXPECT_EQ(rec.payloads[rec.payloads.size() - 2], payloads.back());
  EXPECT_EQ(rec.dropped_bytes, 0u);
}

TEST(JournalScanTest, GarbageBeforeTheMagicStopsTheScan) {
  std::string image = "not a journal at all";
  JournalRecovery rec = ScanJournalImage(image);
  EXPECT_TRUE(rec.payloads.empty());
  EXPECT_EQ(rec.dropped_bytes, image.size());
}

TEST(JournalTest, AppendsAndRecoversAcrossReopen) {
  const std::string path = TempJournalPath("reopen");
  JournalOptions opts;
  opts.fsync_every = 1;
  {
    JournalRecovery rec;
    auto j = Journal::Open(path, opts, &rec);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_TRUE(rec.payloads.empty());
    for (const std::string& p : SamplePayloads()) {
      ASSERT_TRUE(j->Append(p).ok());
    }
    EXPECT_EQ(j->records(), SamplePayloads().size());
  }
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(rec.payloads, SamplePayloads());
  EXPECT_EQ(rec.dropped_bytes, 0u);
  std::remove(path.c_str());
}

/// The kill -9 shape: a full journal plus half of a final record on
/// disk. Open must salvage the prefix, truncate the torn tail off the
/// file, and leave a journal that cleanly accepts new appends.
TEST(JournalTest, OpenSalvagesATornTailAndKeepsAppending) {
  const std::string path = TempJournalPath("torn");
  const auto& payloads = SamplePayloads();
  std::string image = ImageOf(payloads);
  const std::string torn = FrameJournalRecord("never fully written");
  image += torn.substr(0, torn.size() / 2);
  WriteFile(path, image);

  JournalOptions opts;
  opts.fsync_every = 1;
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(rec.payloads, payloads);
  EXPECT_EQ(rec.dropped_bytes, torn.size() / 2);
  // The torn bytes are gone from disk, not just skipped.
  EXPECT_EQ(ReadFile(path).size(), rec.valid_bytes);

  ASSERT_TRUE(j->Append("after the crash").ok());
  JournalRecovery rec2 = ScanJournalImage(ReadFile(path));
  ASSERT_EQ(rec2.payloads.size(), payloads.size() + 1);
  EXPECT_EQ(rec2.payloads.back(), "after the crash");
  EXPECT_EQ(rec2.dropped_bytes, 0u);
  std::remove(path.c_str());
}

/// An injected short write (power loss mid-append) must report the
/// error, roll the file back to the last good record, and leave the
/// journal usable: the next append lands cleanly.
TEST(JournalTest, ShortWriteRollsBackAndTheJournalStaysUsable) {
  const std::string path = TempJournalPath("shortwrite");
  JournalOptions opts;
  opts.fsync_every = 0;
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j->Append("good record one").ok());
  const uint64_t good_bytes = j->bytes();

  FaultInjector inject;
  inject.fault = FaultInjector::Fault::kShortWrite;
  inject.trigger_op = 1;
  j->set_fault_injector(&inject);
  Status st = j->Append("the doomed record");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(inject.fired);
  EXPECT_EQ(j->bytes(), good_bytes);  // Rolled back.
  EXPECT_EQ(j->records(), 1u);

  j->set_fault_injector(nullptr);
  ASSERT_TRUE(j->Append("good record two").ok());
  JournalRecovery rec2 = ScanJournalImage(ReadFile(path));
  ASSERT_EQ(rec2.payloads.size(), 2u);
  EXPECT_EQ(rec2.payloads[0], "good record one");
  EXPECT_EQ(rec2.payloads[1], "good record two");
  EXPECT_EQ(rec2.dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(JournalTest, FailedWriteRollsBackToo) {
  const std::string path = TempJournalPath("failwrite");
  JournalOptions opts;
  opts.fsync_every = 0;
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok());
  FaultInjector inject;
  inject.fault = FaultInjector::Fault::kFailWrite;
  inject.trigger_op = 1;
  j->set_fault_injector(&inject);
  EXPECT_FALSE(j->Append("never lands").ok());
  j->set_fault_injector(nullptr);
  ASSERT_TRUE(j->Append("lands").ok());
  JournalRecovery rec2 = ScanJournalImage(ReadFile(path));
  ASSERT_EQ(rec2.payloads.size(), 1u);
  EXPECT_EQ(rec2.payloads[0], "lands");
  std::remove(path.c_str());
}

TEST(JournalTest, FsyncFaultSurfacesWithoutCorruptingTheFile) {
  const std::string path = TempJournalPath("failfsync");
  JournalOptions opts;
  opts.fsync_every = 1;  // Every append syncs, so the fault fires inline.
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok());
  FaultInjector inject;
  inject.fault = FaultInjector::Fault::kFailFsync;
  inject.trigger_op = 2;  // Op 1 is the record's write, op 2 its fsync.
  j->set_fault_injector(&inject);
  Status st = j->Append("written but not provably durable");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(inject.fired);
  j->set_fault_injector(nullptr);
  // The bytes reached the file even though durability wasn't confirmed.
  JournalRecovery rec2 = ScanJournalImage(ReadFile(path));
  ASSERT_EQ(rec2.payloads.size(), 1u);
  EXPECT_EQ(rec2.payloads[0], "written but not provably durable");
  std::remove(path.c_str());
}

TEST(JournalTest, CompactionReplacesTheFileWithTheSnapshot) {
  const std::string path = TempJournalPath("compact");
  JournalOptions opts;
  opts.fsync_every = 1;
  JournalRecovery rec;
  auto j = Journal::Open(path, opts, &rec);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(j->Append("stale " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(j->Compact({"live a", "live b"}).ok());
  EXPECT_EQ(j->records(), 2u);
  JournalRecovery rec2 = ScanJournalImage(ReadFile(path));
  ASSERT_EQ(rec2.payloads.size(), 2u);
  EXPECT_EQ(rec2.payloads[0], "live a");
  EXPECT_EQ(rec2.payloads[1], "live b");
  // Appends after compaction extend the new inode, not the old one.
  ASSERT_TRUE(j->Append("live c").ok());
  EXPECT_EQ(ScanJournalImage(ReadFile(path)).payloads.size(), 3u);
  std::remove(path.c_str());
}

// --- Server-level recovery: the property the journal exists for. ---

constexpr char kDeadlockPair[] =
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Ly Lx Uy Ux\n";

constexpr char kCertifiedPair[] =
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Lx Ly Ux Uy\n";

/// kDeadlockPair, renamed and reordered: must hit the recovered cache.
constexpr char kDeadlockPairPermuted[] =
    "site a2: beta\n"
    "site a1: alpha\n"
    "txn B: Lbeta Lalpha Ubeta Ualpha\n"
    "txn A: Lalpha Lbeta Ualpha Ubeta\n";

std::string Drive(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server.ServeStream(in, out);
  return out.str();
}

std::string CertifyRequest(const std::string& workload) {
  return "certify\n" + workload + "end\n";
}

/// Extracts the body of the first response (through the lone '.').
std::string FirstResponse(const std::string& out) {
  size_t dot = out.find("\n.\n");
  return dot == std::string::npos ? out : out.substr(0, dot + 3);
}

/// Blanks the wall-clock field so responses can be compared byte-for-
/// byte: elapsed_us is the one legitimately nondeterministic token.
std::string StripElapsed(std::string s) {
  size_t pos = 0;
  while ((pos = s.find("elapsed_us=", pos)) != std::string::npos) {
    size_t end = pos + 11;
    while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
    s.erase(pos, end - pos);
  }
  return s;
}

TEST(ServerJournalTest, RestartReServesByteIdenticalVerdictsFromTheJournal) {
  const std::string path = TempJournalPath("server_restart");
  ServerOptions opts;
  opts.journal_path = path;
  opts.journal_fsync_every = 1;

  std::string first_verdict;
  {
    auto server = Server::Create(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    first_verdict = FirstResponse(Drive(*server, CertifyRequest(kDeadlockPair)));
    Drive(*server, CertifyRequest(kCertifiedPair));
    EXPECT_EQ(server->stats().journal_appends, 2u);
    EXPECT_EQ(server->stats().journal_errors, 0u);
  }

  auto reborn = Server::Create(opts);
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  EXPECT_EQ(reborn->stats().journal_recovered, 2u);
  EXPECT_EQ(reborn->stats().journal_salvaged_bytes, 0u);

  // Identical resubmission: byte-identical response (modulo the wall
  // clock), served from cache.
  const std::string again =
      FirstResponse(Drive(*reborn, CertifyRequest(kDeadlockPair)));
  std::string expected = StripElapsed(first_verdict);
  size_t src = expected.find("source=full");
  ASSERT_NE(src, std::string::npos) << expected;
  expected.replace(src, 11, "source=cache");
  EXPECT_EQ(StripElapsed(again), expected);
  EXPECT_EQ(reborn->stats().cache_hits, 1u);

  // Permuted resubmission hits too (canonical keys survive the journal).
  const std::string permuted =
      Drive(*reborn, CertifyRequest(kDeadlockPairPermuted));
  EXPECT_NE(permuted.find("source=cache"), std::string::npos) << permuted;
  EXPECT_EQ(reborn->stats().cache_hits, 2u);
  EXPECT_EQ(reborn->stats().cache_misses, 0u);
  EXPECT_EQ(reborn->stats().full_certifications, 0u);
  std::remove(path.c_str());
}

TEST(ServerJournalTest, TornJournalTailIsSalvagedNotFatal) {
  const std::string path = TempJournalPath("server_torn");
  ServerOptions opts;
  opts.journal_path = path;
  opts.journal_fsync_every = 1;
  {
    auto server = Server::Create(opts);
    ASSERT_TRUE(server.ok());
    Drive(*server, CertifyRequest(kDeadlockPair));
  }
  // Tear the tail: chop the last 10 bytes and append garbage, the
  // post-kill disk state after an unsynced append.
  std::string image = ReadFile(path);
  ASSERT_GT(image.size(), 10u);
  image.resize(image.size() - 10);
  image += "\x7f garbage";
  WriteFile(path, image);

  auto reborn = Server::Create(opts);
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  EXPECT_EQ(reborn->stats().journal_recovered, 0u);
  EXPECT_GT(reborn->stats().journal_salvaged_bytes, 0u);
  // The server still serves — the verdict is just recomputed.
  const std::string out = Drive(*reborn, CertifyRequest(kDeadlockPair));
  EXPECT_NE(out.find("source=full"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(ServerJournalTest, NonCanonicalRecordIsSkippedAndReCertified) {
  // A record whose canonical_text is a valid listing of its system but
  // not the canonical one — what every record written before a change of
  // the canonical form looks like. Recovery must skip it (re-keying the
  // text does not reproduce it), count it, and re-certify on demand.
  const std::string path = TempJournalPath("server_noncanonical");
  {
    auto parsed = ParseWorkload(kDeadlockPair);
    ASSERT_TRUE(parsed.ok());
    auto key = CanonicalSystemKey(*parsed->owned.system);
    ASSERT_TRUE(key.ok());
    auto report = CheckSafeAndDeadlockFree(*parsed->owned.system);
    ASSERT_TRUE(report.ok());
    ASSERT_FALSE(report->holds);
    CertificateBundle stale = MakeCertificate(*key, *report);
    ASSERT_NE(stale.canonical_text, kDeadlockPair);
    stale.canonical_text = kDeadlockPair;
    ASSERT_TRUE(ParseCertificate(SerializeCertificate(stale)).ok());
    auto journal = Journal::Open(path, JournalOptions{}, nullptr);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal->Append(SerializeCertificate(stale)).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }

  ServerOptions opts;
  opts.journal_path = path;
  opts.journal_fsync_every = 1;
  {
    auto server = Server::Create(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_EQ(server->stats().journal_recovered, 0u);
    EXPECT_EQ(server->stats().journal_errors, 1u);
    const std::string out = Drive(*server, CertifyRequest(kDeadlockPair));
    EXPECT_NE(out.find("certified=no source=full"), std::string::npos) << out;
    EXPECT_NE(out.find("witness: "), std::string::npos) << out;
    EXPECT_EQ(server->stats().journal_appends, 1u);
  }

  // The fresh verdict was journaled under the canonical text: the next
  // restart recovers it (the stale record is still skipped) and serves
  // even a renamed resubmission from cache.
  auto reborn = Server::Create(opts);
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  EXPECT_EQ(reborn->stats().journal_recovered, 1u);
  EXPECT_EQ(reborn->stats().journal_errors, 1u);
  const std::string out =
      Drive(*reborn, CertifyRequest(kDeadlockPairPermuted));
  EXPECT_NE(out.find("certified=no source=cache"), std::string::npos) << out;
  EXPECT_EQ(reborn->stats().full_certifications, 0u);
  std::remove(path.c_str());
}

TEST(ServerJournalTest, CompactionKeepsTheJournalNearTheCacheSize) {
  const std::string path = TempJournalPath("server_compact");
  ServerOptions opts;
  opts.journal_path = path;
  opts.journal_fsync_every = 1;
  opts.cache_entries = 2;
  opts.journal_compact_slack = 0;  // Compact as soon as records > cache.
  auto server = Server::Create(opts);
  ASSERT_TRUE(server.ok());
  // Three distinct systems through a 2-entry cache: the journal would
  // grow without bound if compaction never ran.
  Drive(*server, CertifyRequest(kDeadlockPair));
  Drive(*server, CertifyRequest(kCertifiedPair));
  Drive(*server,
        CertifyRequest("site s1: x\ntxn T1: Lx Ux\ntxn T2: Lx Ux\n"));
  EXPECT_GT(server->stats().journal_compactions, 0u);
  EXPECT_EQ(server->stats().journal_errors, 0u);
  JournalRecovery rec = ScanJournalImage(ReadFile(path));
  EXPECT_LE(rec.payloads.size(), 2u + 0u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace wydb
