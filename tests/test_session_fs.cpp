// Durable session storage tests: the atomic write protocol, the recovery
// scan (torn/truncated/corrupt blobs quarantined, valid ones adopted),
// retention, ENOSPC/EIO degradation, the seeded PRIMER_STORE_FAULT_* crash
// matrix — and, end to end, that an inference SIGKILLed as a REAL process
// at several distinct phase segments is recovered bit-identically by a
// freshly exec'd process resuming from disk, cached key material replayed
// at zero wire cost.
//
// DurableChaos.* are the cells tools/crash_soak.py drives as child
// processes (CrashRun dies at a seeded frame, RecoverRun must finish the
// job); CrashRecoveryMatrix runs the same fork/exec dance in-process as a
// tier-1 test.  DurableChaos.FullDiskDegrades is the CI disk-full leg:
// pointed at a tiny tmpfs it must complete from memory, not crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fs.h"
#include "common/serialize.h"
#include "net/crc32c.h"
#include "net/frame.h"
#include "net/session.h"
#include "net/session_fs.h"
#include "nn/model.h"
#include "nn/train.h"
#include "proto/primer.h"
#include "serving/session_manager.h"

namespace primer {
namespace {

void remove_tree(const std::string& dir) {
  try {
    for (const std::string& name : list_dir(dir)) {
      const std::string p = dir + "/" + name;
      if (is_directory(p)) {
        remove_tree(p);
      } else {
        remove_file(p);
      }
    }
  } catch (const FsError&) {
  }
  ::rmdir(dir.c_str());
}

// Scratch directory inside the build tree (ctest's cwd), removed on exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "primer_fs_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() { remove_tree(path); }
};

struct EnvGuard {
  explicit EnvGuard(std::vector<std::pair<const char*, std::string>> kv) {
    for (const auto& [k, v] : kv) {
      keys_.push_back(k);
      ::setenv(k, v.c_str(), 1);
    }
  }
  ~EnvGuard() {
    for (const char* k : keys_) ::unsetenv(k);
  }
  std::vector<const char*> keys_;
};

SessionCheckpoint sample_checkpoint(std::uint32_t epoch) {
  SessionCheckpoint cp;
  cp.session_id = 0xfeed;
  cp.epoch = epoch;
  cp.phase = "gc_offline";
  cp.params_hash = 0x1234abcd;
  cp.send_watermark[0] = 3;
  cp.send_watermark[1] = 2;
  cp.frame_crc[0] = {11, 22, 33};
  cp.frame_crc[1] = {44, 55};
  cp.wire_bytes = 123456;
  return cp;
}

DurableSessionStore::Options faulted(StoreFaultSpec::Mode mode,
                                     std::uint64_t at,
                                     std::uint64_t torn_byte = 32) {
  DurableSessionStore::Options o;
  o.faults.mode = mode;
  o.faults.at = at;
  o.faults.torn_byte = torn_byte;
  return o;
}

// --- fs helpers & the atomic write protocol ----------------------------------

TEST(AtomicWrite, CommitsOrPreservesNeverTears) {
  TempDir tmp;
  const std::vector<std::uint8_t> v1 = {1, 2, 3, 4};
  const std::vector<std::uint8_t> v2(1000, 7);

  AtomicWriteStats stats;
  atomic_write_file(tmp.path, "blob", v1.data(), v1.size(), {}, &stats);
  EXPECT_EQ(stats.bytes_written, v1.size());
  EXPECT_EQ(stats.fsyncs, 2u);  // file + directory
  EXPECT_EQ(read_file(tmp.path + "/blob"), v1);

  // A crash before the rename leaves the previous contents untouched.
  AtomicWriteHooks crash_early;
  crash_early.crash_before_rename = true;
  EXPECT_THROW(
      atomic_write_file(tmp.path, "blob", v2.data(), v2.size(), crash_early),
      SimulatedCrash);
  EXPECT_EQ(read_file(tmp.path + "/blob"), v1);
  EXPECT_TRUE(path_exists(tmp.path + "/blob.tmp"));  // debris for the scan

  // A crash after the rename commits the new contents.
  AtomicWriteHooks crash_late;
  crash_late.crash_after_rename = true;
  EXPECT_THROW(
      atomic_write_file(tmp.path, "blob", v2.data(), v2.size(), crash_late),
      SimulatedCrash);
  EXPECT_EQ(read_file(tmp.path + "/blob"), v2);

  // A failed data write surfaces as a typed FsError with the errno.
  AtomicWriteHooks fail;
  fail.fail_write = true;
  try {
    atomic_write_file(tmp.path, "blob", v1.data(), v1.size(), fail);
    FAIL() << "expected FsError";
  } catch (const FsError& e) {
    EXPECT_EQ(e.op(), "write");
    EXPECT_EQ(e.saved_errno(), EIO);
  }
  EXPECT_EQ(read_file(tmp.path + "/blob"), v2);  // still the committed state

  ensure_dir(tmp.path + "/a/b/c");
  EXPECT_TRUE(is_directory(tmp.path + "/a/b/c"));
  EXPECT_NO_THROW(ensure_dir(tmp.path + "/a/b/c"));  // idempotent
  EXPECT_THROW(ensure_dir(tmp.path + "/blob"), FsError);  // file in the way
}

// --- durable store: round trip, recovery scan, quarantine --------------------

TEST(DurableStore, RoundTripSurvivesReopen) {
  TempDir tmp;
  {
    DurableSessionStore store(tmp.path, {});
    store.save(Party::kClient, sample_checkpoint(1));
    store.save(Party::kClient, sample_checkpoint(2));
    store.save(Party::kServer, sample_checkpoint(1));
    const auto t = store.telemetry();
    EXPECT_GT(t.bytes_written, 0u);
    EXPECT_EQ(t.fsyncs, 6u);  // 3 saves x (file + dir)
    EXPECT_EQ(t.degradations, 0u);
    EXPECT_FALSE(t.degraded);
  }
  // A fresh instance over the same directory — what a freshly exec'd
  // process sees — adopts every blob.
  DurableSessionStore store(tmp.path, {});
  EXPECT_EQ(store.telemetry().recovered_blobs, 3u);
  EXPECT_EQ(store.latest_epoch(Party::kClient), 2u);
  EXPECT_EQ(store.latest_epoch(Party::kServer), 1u);
  const auto cp = store.load(Party::kClient, 2);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->digest(), sample_checkpoint(2).digest());
  EXPECT_TRUE(store.quarantined().empty());

  // drop/clear remove the files too.
  store.drop(Party::kClient, 2);
  EXPECT_FALSE(path_exists(tmp.path + "/client_000002.ckpt"));
  store.clear();
  EXPECT_FALSE(path_exists(tmp.path + "/client_000001.ckpt"));
  EXPECT_FALSE(path_exists(tmp.path + "/server_000001.ckpt"));
  EXPECT_EQ(DurableSessionStore(tmp.path, {}).telemetry().recovered_blobs, 0u);
}

TEST(DurableStore, PolymorphicThroughBasePointer) {
  TempDir tmp;
  std::unique_ptr<SessionStore> store =
      std::make_unique<DurableSessionStore>(tmp.path);
  store->save(Party::kClient, sample_checkpoint(1));
  EXPECT_EQ(store->latest_epoch(Party::kClient), 1u);
  EXPECT_GT(store->telemetry().fsyncs, 0u);
  EXPECT_FALSE(store->last_degradation().has_value());
  // The base in-memory store reports empty telemetry through the same seam.
  SessionStore ram;
  ram.save(Party::kClient, sample_checkpoint(1));
  EXPECT_EQ(ram.telemetry().fsyncs, 0u);
}

TEST(DurableStore, ScanCleansTmpAndQuarantinesGarbage) {
  TempDir tmp;
  {
    DurableSessionStore store(tmp.path, {});
    store.save(Party::kClient, sample_checkpoint(1));
  }
  // Plant post-crash debris: an uncommitted temp file, a foreign file, a
  // truncated blob and a bit-flipped blob.
  const std::vector<std::uint8_t> junk = {0xde, 0xad};
  atomic_write_file(tmp.path, "client_000002.ckpt.tmp", junk.data(),
                    junk.size());
  atomic_write_file(tmp.path, "notes.txt", junk.data(), junk.size());
  auto torn = *read_file(tmp.path + "/client_000001.ckpt");
  torn.resize(torn.size() / 2);
  atomic_write_file(tmp.path, "server_000003.ckpt", torn.data(), torn.size());
  auto flipped = *read_file(tmp.path + "/client_000001.ckpt");
  flipped[flipped.size() - 3] ^= 0x40;
  atomic_write_file(tmp.path, "client_000004.ckpt", flipped.data(),
                    flipped.size());

  DurableSessionStore store(tmp.path, {});
  EXPECT_FALSE(path_exists(tmp.path + "/client_000002.ckpt.tmp"));
  EXPECT_EQ(store.quarantined().size(), 3u);
  EXPECT_EQ(store.telemetry().quarantined_blobs, 3u);
  EXPECT_EQ(store.telemetry().recovered_blobs, 1u);
  EXPECT_EQ(store.latest_epoch(Party::kClient), 1u);
  EXPECT_EQ(store.latest_epoch(Party::kServer), 0u);
  // Quarantined blobs are kept for post-mortem, not deleted.
  EXPECT_TRUE(path_exists(tmp.path + "/quarantine/notes.txt"));
  EXPECT_TRUE(path_exists(tmp.path + "/quarantine/server_000003.ckpt"));
  EXPECT_TRUE(path_exists(tmp.path + "/quarantine/client_000004.ckpt"));
  // The scan is idempotent: a third open sees a clean directory.
  EXPECT_TRUE(DurableSessionStore(tmp.path, {}).quarantined().empty());
}

TEST(DurableStore, TamperedBlobIsQuarantinedByNextScan) {
  TempDir tmp;
  {
    DurableSessionStore store(tmp.path, {});
    store.save(Party::kClient, sample_checkpoint(1));
    store.save(Party::kClient, sample_checkpoint(2));
    store.tamper(Party::kClient, 2);
  }
  DurableSessionStore store(tmp.path, {});
  EXPECT_EQ(store.quarantined().size(), 1u);
  EXPECT_EQ(store.latest_epoch(Party::kClient), 1u);
}

// --- seeded fault matrix: every crash point leaves the store recoverable ----

TEST(DurableStore, FaultMatrixEveryCrashPointRecovers) {
  // Fault the SECOND persist op each time: epoch 1 must survive untouched,
  // epoch 2 is the in-flight casualty the scan may at most lose/quarantine.
  for (const auto mode : {StoreFaultSpec::Mode::kShortWrite,
                          StoreFaultSpec::Mode::kCrashBeforeRename,
                          StoreFaultSpec::Mode::kCrashAfterRename}) {
    TempDir tmp;
    {
      DurableSessionStore store(tmp.path, faulted(mode, 2));
      store.save(Party::kClient, sample_checkpoint(1));
      if (mode == StoreFaultSpec::Mode::kShortWrite) {
        // Torn write COMMITS garbage (rename-before-data-fsync bug model);
        // the save itself survives, in memory.
        store.save(Party::kClient, sample_checkpoint(2));
        EXPECT_EQ(store.latest_epoch(Party::kClient), 2u);
      } else {
        EXPECT_THROW(store.save(Party::kClient, sample_checkpoint(2)),
                     SimulatedCrash);
      }
    }
    // Fresh process: the scan must recover epoch 1 and never crash.
    DurableSessionStore store(tmp.path, {});
    EXPECT_EQ(store.latest_epoch(Party::kClient),
              mode == StoreFaultSpec::Mode::kCrashAfterRename ? 2u : 1u)
        << "mode " << static_cast<int>(mode);
    ASSERT_TRUE(store.load(Party::kClient, 1).has_value());
    EXPECT_EQ(store.load(Party::kClient, 1)->digest(),
              sample_checkpoint(1).digest());
    if (mode == StoreFaultSpec::Mode::kShortWrite) {
      // The torn epoch-2 blob is exactly what quarantine exists for.
      EXPECT_EQ(store.quarantined().size(), 1u);
    } else {
      EXPECT_TRUE(store.quarantined().empty());
    }
  }
}

TEST(DurableStore, WriteFailureDegradesToMemoryThenHeals) {
  TempDir tmp;
  DurableSessionStore store(tmp.path, faulted(StoreFaultSpec::Mode::kFail, 1));
  // The faulted save does NOT throw: the inference must not die because the
  // disk did.  It lands in memory and latches degraded mode.
  store.save(Party::kClient, sample_checkpoint(1));
  EXPECT_EQ(store.latest_epoch(Party::kClient), 1u);
  EXPECT_FALSE(path_exists(tmp.path + "/client_000001.ckpt"));
  auto t = store.telemetry();
  EXPECT_EQ(t.degradations, 1u);
  EXPECT_TRUE(t.degraded);
  const auto deg = store.last_degradation();
  ASSERT_TRUE(deg.has_value());
  EXPECT_EQ(deg->kind(), ProtocolErrorKind::kStorageDegraded);
  EXPECT_TRUE(deg->retryable());
  EXPECT_EQ(deg->saved_errno(), EIO);
  EXPECT_NE(std::string(deg->what()).find("continuing from memory"),
            std::string::npos);

  // The next save retries the disk and heals the latch.
  store.save(Party::kClient, sample_checkpoint(2));
  EXPECT_TRUE(path_exists(tmp.path + "/client_000002.ckpt"));
  t = store.telemetry();
  EXPECT_EQ(t.degradations, 1u);
  EXPECT_FALSE(t.degraded);
}

TEST(DurableStore, FaultSpecFromEnvParsesAndRejects) {
  {
    EnvGuard env({{"PRIMER_STORE_FAULT_AT", "3"},
                  {"PRIMER_STORE_FAULT_MODE", "short_write"},
                  {"PRIMER_STORE_FAULT_TORN_BYTE", "17"}});
    const StoreFaultSpec s = StoreFaultSpec::from_env();
    EXPECT_TRUE(s.armed());
    EXPECT_EQ(s.at, 3u);
    EXPECT_EQ(s.mode, StoreFaultSpec::Mode::kShortWrite);
    EXPECT_EQ(s.torn_byte, 17u);
  }
  EXPECT_FALSE(StoreFaultSpec::from_env().armed());
  {
    EnvGuard env(std::vector<std::pair<const char*, std::string>>{
        {"PRIMER_STORE_FAULT_MODE", "frobnicate"}});
    EXPECT_THROW((void)StoreFaultSpec::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env({{"PRIMER_STORE_KEEP", "2"},
                  {"PRIMER_STORE_MAX_BYTES", "4096"}});
    const auto o = DurableSessionStore::Options::from_env();
    EXPECT_EQ(o.keep_last, 2u);
    EXPECT_EQ(o.max_bytes, 4096u);
  }
}

// --- retention ---------------------------------------------------------------

TEST(DurableStore, RetentionKeepsLastKPerParty) {
  TempDir tmp;
  DurableSessionStore::Options opts;
  opts.keep_last = 2;
  DurableSessionStore store(tmp.path, opts);
  for (std::uint32_t e = 1; e <= 5; ++e) {
    store.save(Party::kClient, sample_checkpoint(e));
  }
  store.save(Party::kServer, sample_checkpoint(1));
  EXPECT_EQ(store.digests(Party::kClient).size(), 2u);
  EXPECT_FALSE(store.load(Party::kClient, 3).has_value());
  ASSERT_TRUE(store.load(Party::kClient, 4).has_value());
  ASSERT_TRUE(store.load(Party::kClient, 5).has_value());
  EXPECT_FALSE(path_exists(tmp.path + "/client_000003.ckpt"));
  EXPECT_TRUE(path_exists(tmp.path + "/client_000005.ckpt"));
  // The other party's (single) epoch is untouched.
  EXPECT_EQ(store.latest_epoch(Party::kServer), 1u);

  // A reopen honors the surviving files.
  DurableSessionStore back(tmp.path, opts);
  EXPECT_EQ(back.telemetry().recovered_blobs, 3u);
}

TEST(DurableStore, ByteCapShedsOldestButNeverTheLatest) {
  TempDir tmp;
  DurableSessionStore::Options opts;
  opts.keep_last = 0;  // byte cap only
  opts.max_bytes = 1;  // pathological: everything over budget
  DurableSessionStore store(tmp.path, opts);
  for (std::uint32_t e = 1; e <= 4; ++e) {
    store.save(Party::kClient, sample_checkpoint(e));
  }
  store.save(Party::kServer, sample_checkpoint(2));
  // Over budget, but each party keeps its newest epoch — shedding those
  // would forfeit resumability entirely.
  EXPECT_EQ(store.digests(Party::kClient).size(), 1u);
  EXPECT_EQ(store.latest_epoch(Party::kClient), 4u);
  EXPECT_EQ(store.latest_epoch(Party::kServer), 2u);
  EXPECT_TRUE(path_exists(tmp.path + "/client_000004.ckpt"));
  EXPECT_FALSE(path_exists(tmp.path + "/client_000001.ckpt"));
}

// --- fuzz smoke: hostile bytes must throw typed errors, never crash ---------

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(FuzzSmoke, CheckpointDeserializeNeverCrashes) {
  Rng rng(0xc0ffee);
  ByteWriter w;
  sample_checkpoint(3).serialize(w);
  const auto valid = w.take();
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> blob;
    if (iter % 3 == 0) {
      blob = random_bytes(rng, rng() % 256);
    } else {
      blob = valid;
      if (iter % 3 == 1) {
        blob.resize(rng() % (valid.size() + 1));  // truncation
      } else {
        for (int f = 0; f < 3; ++f) {  // bit flips
          blob[rng() % blob.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
      }
    }
    try {
      ByteReader r(blob);
      const SessionCheckpoint cp = SessionCheckpoint::deserialize(r);
      (void)cp.digest();  // survivors must still be safe to digest
    } catch (const ProtocolError&) {
    } catch (const std::out_of_range&) {
    }
    // Anything else (SIGSEGV, bad_alloc from a hostile length, UB under
    // the sanitizer legs) fails the test by crashing it.
  }
}

TEST(FuzzSmoke, FrameParserNeverCrashes) {
  Rng rng(0xfade);
  const std::vector<std::uint8_t> payload(48, 5);
  const auto valid =
      encode_frame(MessageKind::kCiphertexts, 7, payload.data(), payload.size());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> frame;
    if (iter % 3 == 0) {
      frame = random_bytes(rng, rng() % 128);
    } else {
      frame = valid;
      if (iter % 3 == 1) {
        frame.resize(rng() % (valid.size() + 1));
      } else if (!frame.empty()) {
        for (int f = 0; f < 3; ++f) {
          frame[rng() % frame.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
      }
    }
    try {
      (void)parse_frame(frame, "fuzz");
    } catch (const ProtocolError&) {
    }
  }
}

TEST(FuzzSmoke, BlobLoaderNeverCrashes) {
  TempDir tmp;
  Rng rng(0xbead);
  std::vector<std::uint8_t> valid;
  {
    DurableSessionStore store(tmp.path, {});
    store.save(Party::kClient, sample_checkpoint(1));
    valid = *read_file(tmp.path + "/client_000001.ckpt");
  }
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> blob;
    if (iter % 3 == 0) {
      blob = random_bytes(rng, rng() % 256);
    } else {
      blob = valid;
      if (iter % 3 == 1) {
        blob.resize(rng() % (valid.size() + 1));
      } else {
        for (int f = 0; f < 3; ++f) {
          blob[rng() % blob.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
      }
    }
    // Must return nullopt or a payload; any escape hatch is a bug.
    (void)DurableSessionStore::validate_blob(blob, Party::kClient, 1);
  }
  // And a store opened over a directory full of fuzz garbage quarantines
  // everything without crashing.
  TempDir hostile;
  for (int i = 0; i < 8; ++i) {
    const auto junk = random_bytes(rng, rng() % 200);
    atomic_write_file(hostile.path, DurableSessionStore::blob_name(
                                        Party::kClient, static_cast<std::uint32_t>(i + 1)),
                      junk.data(), junk.size());
  }
  DurableSessionStore store(hostile.path, {});
  EXPECT_EQ(store.latest_epoch(Party::kClient), 0u);
  EXPECT_EQ(store.quarantined().size(), 8u);
}

// --- SessionManager durability ----------------------------------------------

TEST(DurableSessionManager, ReadoptsClientsAcrossRestart) {
  TempDir tmp;
  const std::uint64_t fp = 0xabc1;
  {
    SessionManager mgr(tmp.path);
    EXPECT_TRUE(mgr.durable());
    SessionManager::Lease lease;
    ASSERT_EQ(mgr.acquire(42, fp, &lease), SessionManager::Acquire::kOk);
    EXPECT_FALSE(lease.resumable);
    lease.store->save(Party::kClient, sample_checkpoint(1));
    lease.store->save(Party::kServer, sample_checkpoint(1));
    mgr.release(42);
    const auto s = mgr.stats();
    EXPECT_EQ(s.recovered_clients, 0u);
    EXPECT_GT(s.store_bytes_written, 0u);
    EXPECT_GT(s.store_fsyncs, 0u);
  }
  // "Restart": a new manager over the same root re-adopts the client, its
  // fingerprint and its checkpoints.
  SessionManager mgr(tmp.path);
  const auto s = mgr.stats();
  EXPECT_EQ(s.clients, 1u);
  EXPECT_EQ(s.recovered_clients, 1u);
  EXPECT_EQ(s.store_recovered_blobs, 2u);
  SessionManager::Lease lease;
  ASSERT_EQ(mgr.acquire(42, fp, &lease), SessionManager::Acquire::kOk);
  EXPECT_TRUE(lease.resumable);  // same identity -> zero-wire resume
  EXPECT_EQ(lease.store->latest_epoch(Party::kClient), 1u);
  mgr.release(42);
  EXPECT_EQ(mgr.stats().resumable_hits, 1u);

  // A different fingerprint clears the recovered history (disk included).
  ASSERT_EQ(mgr.acquire(42, fp + 2, &lease), SessionManager::Acquire::kOk);
  EXPECT_FALSE(lease.resumable);
  EXPECT_FALSE(path_exists(tmp.path + "/client_42/" +
                           DurableSessionStore::blob_name(Party::kClient, 1)));
  mgr.release(42);
  EXPECT_EQ(mgr.stats().resets, 1u);
}

TEST(DurableSessionManager, QuarantinePurgesDiskAndSurvivesRestart) {
  TempDir tmp;
  {
    SessionManager mgr(tmp.path);
    SessionManager::Lease lease;
    ASSERT_EQ(mgr.acquire(7, 0x11, &lease), SessionManager::Acquire::kOk);
    lease.store->save(Party::kClient, sample_checkpoint(1));
    mgr.release(7);
    mgr.quarantine(7, "hostile frames");
    EXPECT_FALSE(path_exists(tmp.path + "/client_7/" +
                             DurableSessionStore::blob_name(Party::kClient, 1)));
  }
  // After a restart the client directory is empty: no stale checkpoints to
  // resume against.  (The quarantine flag itself is in-process state; the
  // durable contract is that poisoned key material never survives.)
  SessionManager mgr(tmp.path);
  SessionManager::Lease lease;
  ASSERT_EQ(mgr.acquire(7, 0x11, &lease), SessionManager::Acquire::kOk);
  EXPECT_FALSE(lease.resumable);
}

// --- end-to-end: durable resume, in process ---------------------------------

const std::vector<std::size_t> kTokens = {3, 17, 9, 28};

// One inference checkpointing into `store`, surviving up to 5 retryable
// failures by resuming from the last common checkpoint.
PrimerRunResult run_with_restarts(const PrimerEngine& engine,
                                  SessionStore& store) {
  SessionOptions options = SessionOptions::from_env();
  options.store = &store;
  options.max_restarts = 5;
  return engine.run(kTokens, options);
}

BertWeightsI chaos_weights() {
  Rng wrng(2025);
  return quantize(BertWeightsD::random(bert_nano(), wrng));
}

TEST(DurableResilience, StoreCrashMidRunThenFreshProcessResumes) {
  const auto weights = chaos_weights();
  const auto ref = FixedBert(weights).forward(kTokens);
  for (const auto mode : {StoreFaultSpec::Mode::kCrashBeforeRename,
                          StoreFaultSpec::Mode::kCrashAfterRename}) {
    TempDir tmp;
    {
      PrimerEngine engine(weights, PrimerVariant::kFP);
      // Crash the 5th persist op: epochs 1-2 are committed for both
      // parties, epoch 3's client blob is the in-flight casualty.
      DurableSessionStore store(tmp.path, faulted(mode, 5));
      EXPECT_THROW((void)run_with_restarts(engine, store), SimulatedCrash);
    }
    // The "freshly exec'd process": new engine, new store over the same
    // directory.  It must resume from the highest surviving checkpoint and
    // finish bit-identically.
    PrimerEngine engine(weights, PrimerVariant::kFP);
    DurableSessionStore store(tmp.path, {});
    EXPECT_GE(store.latest_epoch(Party::kClient), 2u);
    const PrimerRunResult result = run_with_restarts(engine, store);
    EXPECT_EQ(result.logits, ref) << "mode " << static_cast<int>(mode);
    EXPECT_GE(result.resumed_epoch, 2u);
    EXPECT_GT(result.replayed_frames, 0u);  // key material off the wire
    EXPECT_GT(store.telemetry().bytes_written, 0u);
    EXPECT_GT(store.blob_bytes(), 0u);
  }
}

TEST(DurableResilience, DiskFailureMidRunDegradesNotDies) {
  const auto weights = chaos_weights();
  TempDir tmp;
  PrimerEngine engine(weights, PrimerVariant::kFP);
  DurableSessionStore store(tmp.path, faulted(StoreFaultSpec::Mode::kFail, 3));
  const PrimerRunResult result = run_with_restarts(engine, store);
  EXPECT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_EQ(result.restarts, 0);
  EXPECT_EQ(store.telemetry().degradations, 1u);
  EXPECT_FALSE(store.telemetry().degraded);  // later saves healed the latch
  ASSERT_TRUE(store.last_degradation().has_value());
  EXPECT_TRUE(store.last_degradation()->retryable());
}

// --- end-to-end: REAL process death (fork/exec + SIGKILL) -------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

// Runs this test binary as a child on one gtest cell with extra env; returns
// the raw waitpid status.
int run_child(const std::string& exe, const std::string& filter,
              const std::vector<std::pair<std::string, std::string>>& env) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [k, v] : env) ::setenv(k.c_str(), v.c_str(), 1);
    const std::string filter_arg = "--gtest_filter=" + filter;
    ::execl(exe.c_str(), exe.c_str(), filter_arg.c_str(), "--gtest_brief=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// The acceptance-criteria test: SIGKILL a REAL child process at seeded wire
// frames in three distinct phase segments; a freshly exec'd process must
// recover bit-identical output from the on-disk store, replaying the cached
// key material at zero wire cost.
TEST(CrashRecoveryMatrix, RealSigkillAcrossPhaseSegments) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty()) << "/proc/self/exe unavailable";

  // Probe: one clean run maps checkpoint boundaries to wire-frame indices
  // (1-based; the 2 resume-handshake frames precede seq 0).
  const auto weights = chaos_weights();
  const auto ref = FixedBert(weights).forward(kTokens);
  SessionStore probe_store;
  PrimerEngine probe(weights, PrimerVariant::kFP);
  const PrimerRunResult clean = run_with_restarts(probe, probe_store);
  ASSERT_EQ(clean.logits, ref);
  std::vector<std::uint64_t> boundaries;
  for (std::uint32_t e = 1; e <= probe_store.latest_epoch(Party::kClient);
       ++e) {
    const auto cp = probe_store.load(Party::kClient, e);
    ASSERT_TRUE(cp.has_value());
    boundaries.push_back(2 + cp->send_watermark[0] + cp->send_watermark[1]);
  }
  ASSERT_GE(boundaries.size(), 4u);

  // Three kill points in three distinct phase segments: just past the
  // first, a middle, and the next-to-last checkpoint boundary.
  const std::vector<std::uint64_t> kills = {
      boundaries.front() + 1, boundaries[boundaries.size() / 2] + 1,
      boundaries[boundaries.size() - 2] + 1};
  ASSERT_LT(kills.back(), clean.frames_sent);

  for (std::size_t i = 0; i < kills.size(); ++i) {
    TempDir tmp;
    // Child #1 dies by real SIGKILL at the seeded frame.
    const int crashed = run_child(
        exe, "DurableChaos.CrashRun",
        {{"PRIMER_STORE_DIR", tmp.path},
         {"PRIMER_FAULT_KILL_AFTER", std::to_string(kills[i])},
         {"PRIMER_FAULT_KILL_MODE", "sigkill"}});
    ASSERT_TRUE(WIFSIGNALED(crashed))
        << "kill point " << kills[i] << ": child exited instead of dying";
    ASSERT_EQ(WTERMSIG(crashed), SIGKILL);

    // Child #2 is a genuinely fresh process over the same directory.
    const std::string result_file = tmp.path + "/recovery.txt";
    const int recovered =
        run_child(exe, "DurableChaos.RecoverRun",
                  {{"PRIMER_STORE_DIR", tmp.path},
                   {"PRIMER_CRASH_RESULT_FILE", result_file}});
    ASSERT_TRUE(WIFEXITED(recovered) && WEXITSTATUS(recovered) == 0)
        << "kill point " << kills[i] << ": recovery child failed";

    const auto raw = read_file(result_file);
    ASSERT_TRUE(raw.has_value());
    std::uint32_t resumed_epoch = 0;
    unsigned long long replayed_bytes = 0;
    std::string logits;
    {
      std::string text(raw->begin(), raw->end());
      char lbuf[512] = {0};
      ASSERT_EQ(std::sscanf(text.c_str(),
                            "resumed_epoch=%u replayed_bytes=%llu logits=%511s",
                            &resumed_epoch, &replayed_bytes, lbuf),
                3)
          << text;
      logits = lbuf;
    }
    // Bit-identical logits...
    std::string want;
    for (const auto v : ref) want += std::to_string(v) + ",";
    EXPECT_EQ(logits, want) << "kill point " << kills[i];
    // ...resumed from a real on-disk checkpoint (every kill point is past
    // the first boundary), with the checkpointed prefix — key transfer
    // included — replayed at zero wire cost.
    EXPECT_GE(resumed_epoch, 1u) << "kill point " << kills[i];
    EXPECT_GT(replayed_bytes, 0u) << "kill point " << kills[i];
  }
}

// --- cells driven as child processes (tools/crash_soak.py and the matrix) ---

// Probe for tools/crash_soak.py: prints every checkpoint boundary's wire
// frame (1-based; the 2 resume-handshake frames precede seq 0), the total
// frame count and the reference logits, so the soak can pick kill points
// spanning every phase segment and assert recovered output bit for bit.
TEST(DurableChaos, Probe) {
  if (std::getenv("PRIMER_CHAOS_PROBE") == nullptr) {
    GTEST_SKIP() << "set PRIMER_CHAOS_PROBE=1 (tools/crash_soak.py does)";
  }
  const auto weights = chaos_weights();
  PrimerEngine engine(weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = run_with_restarts(engine, store);
  ASSERT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  for (std::uint32_t e = 1; e <= store.latest_epoch(Party::kClient); ++e) {
    const auto cp = store.load(Party::kClient, e);
    ASSERT_TRUE(cp.has_value());
    std::printf("CHAOS phase=%s end_frame=%llu\n", cp->phase.c_str(),
                2ull + cp->send_watermark[0] + cp->send_watermark[1]);
  }
  std::printf("CHAOS total_frames=%llu\n",
              static_cast<unsigned long long>(result.frames_sent));
  std::string logits;
  for (const auto v : result.logits) logits += std::to_string(v) + ",";
  std::printf("CHAOS logits=%s\n", logits.c_str());
}

// Dies mid-inference by real SIGKILL: PRIMER_FAULT_KILL_AFTER +
// PRIMER_FAULT_KILL_MODE=sigkill are read from the environment by the
// session layer.  Checkpoints land in PRIMER_STORE_DIR on the way.
TEST(DurableChaos, CrashRun) {
  const char* dir = std::getenv("PRIMER_STORE_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "set PRIMER_STORE_DIR (the crash harness does)";
  }
  const auto weights = chaos_weights();
  PrimerEngine engine(weights, PrimerVariant::kFP);
  DurableSessionStore store(dir);
  const PrimerRunResult result = run_with_restarts(engine, store);
  // Only reached when no kill is armed (a probe-style invocation): the run
  // must then simply be correct and durable.
  EXPECT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_GT(store.telemetry().bytes_written, 0u);
}

// Fresh-process recovery: resumes from whatever PRIMER_STORE_DIR holds and
// must produce bit-identical logits.  Writes its telemetry to
// PRIMER_CRASH_RESULT_FILE for the parent/harness to assert on.
TEST(DurableChaos, RecoverRun) {
  const char* dir = std::getenv("PRIMER_STORE_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "set PRIMER_STORE_DIR (the crash harness does)";
  }
  const auto weights = chaos_weights();
  PrimerEngine engine(weights, PrimerVariant::kFP);
  DurableSessionStore store(dir);
  const std::uint32_t disk_epoch = store.latest_epoch(Party::kClient);
  const PrimerRunResult result = run_with_restarts(engine, store);
  ASSERT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_EQ(result.resumed_epoch, disk_epoch);
  if (const char* out = std::getenv("PRIMER_CRASH_RESULT_FILE")) {
    std::string text = "resumed_epoch=" + std::to_string(result.resumed_epoch) +
                       " replayed_bytes=" +
                       std::to_string(result.replayed_bytes) + " logits=";
    for (const auto v : result.logits) text += std::to_string(v) + ",";
    text += "\n";
    FILE* f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
}

// CI disk-full leg: PRIMER_STORE_DIR points at a tiny tmpfs.  The store
// must degrade to memory-only operation (typed, retryable, counted) and the
// inference must still complete bit-identically — a full disk costs
// durability, never the answer.
TEST(DurableChaos, FullDiskDegrades) {
  const char* dir = std::getenv("PRIMER_STORE_DIR");
  if (std::getenv("PRIMER_EXPECT_ENOSPC") == nullptr || dir == nullptr) {
    GTEST_SKIP() << "set PRIMER_EXPECT_ENOSPC=1 + PRIMER_STORE_DIR on a tiny "
                    "tmpfs (the CI disk-full leg does)";
  }
  const auto weights = chaos_weights();
  PrimerEngine engine(weights, PrimerVariant::kFP);
  DurableSessionStore store(dir);
  const PrimerRunResult result = run_with_restarts(engine, store);
  EXPECT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_GT(store.telemetry().degradations, 0u);
  const auto deg = store.last_degradation();
  ASSERT_TRUE(deg.has_value());
  EXPECT_EQ(deg->kind(), ProtocolErrorKind::kStorageDegraded);
  EXPECT_TRUE(deg->retryable());
  EXPECT_EQ(deg->saved_errno(), ENOSPC);
}

}  // namespace
}  // namespace primer
