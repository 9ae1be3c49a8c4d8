// Tests for the parallel execution layer (common/parallel.h): thread-pool
// semantics (coverage, small ranges, exception propagation, nesting) and the
// determinism guarantee — with the pool enabled, HE ciphertexts and HGS
// linear-protocol shares are byte-identical to the serial path, because only
// pure modular arithmetic on disjoint data is parallelized and all Rng
// sampling stays on the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/fixed_point.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "he/codec.h"
#include "proto/linear.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

// Restores the previous global thread count when the test scope exits.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadGuard() { set_num_threads(prev_); }

 private:
  std::size_t prev_;
};

TEST(ParallelFor, EmptyRange) {
  ThreadGuard guard(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  parallel_for_chunks(2, 2, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for_2d(0, 10, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for_2d(10, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, RangeSmallerThanPool) {
  ThreadGuard guard(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(0, 3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ChunksPartitionTheRange) {
  ThreadGuard guard(4);
  const std::size_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> calls{0};
  parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard(4);
  const std::size_t rows = 8, cols = 16;
  std::vector<std::atomic<int>> hits(rows * cols);
  parallel_for(0, rows, [&](std::size_t i) {
    // Nested region: must execute inline without deadlocking.
    parallel_for(0, cols, [&](std::size_t j) { ++hits[i * cols + j]; });
  });
  for (std::size_t i = 0; i < rows * cols; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, TwoDimensionalCoverage) {
  ThreadGuard guard(4);
  const std::size_t rows = 13, cols = 7;
  std::vector<std::atomic<int>> hits(rows * cols);
  parallel_for_2d(rows, cols,
                  [&](std::size_t i, std::size_t j) { ++hits[i * cols + j]; });
  for (std::size_t i = 0; i < rows * cols; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelConfig, SetNumThreads) {
  ThreadGuard guard(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(0);  // 0 selects hardware concurrency
  EXPECT_EQ(num_threads(), hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: serial vs threaded runs must be bit-identical.
// ---------------------------------------------------------------------------

struct PipelineOutput {
  std::vector<std::uint8_t> matmul_ct_bytes;  // serialized matmul result
  MatI matmul_result;                         // decrypted ring product
  MatI hgs_client, hgs_server;                // HGS linear shares
};

// One fixed-seed run of the heavy HE paths: encrypted packed matmul with
// ciphertext serialization, then the HGS linear protocol offline + online.
PipelineOutput run_pipeline() {
  PipelineOutput out;
  const std::size_t tokens = 4, d_in = 16, d_out = 8;

  // Encrypted packed matmul.
  {
    HeContext ctx(make_params(HeProfile::kProto2048));
    Rng rng(42);
    KeyGenerator keygen(ctx, rng);
    BatchEncoder encoder(ctx);
    Encryptor enc(ctx, keygen.secret_key(), rng);
    Decryptor dec(ctx, keygen.secret_key());
    Evaluator eval(ctx);
    const ShareRing ring(ctx.t());
    const MatI x = ring.random(rng, tokens, d_in);
    const MatI w = random_fp_matrix(rng, d_in, d_out, -1.0, 1.0);

    PackedMatmul mm(ctx, encoder, eval, PackingStrategy::kTokensFirst);
    const auto gk = expand_keys(ctx, keygen.make_galois_keys(mm.rotation_steps(tokens)));
    const auto packed = drop_seeds(mm.encrypt_input(x, enc));
    const auto result = mm.multiply(packed, w, tokens, ctx.t(), gk, nullptr);
    ByteWriter wtr;
    for (const auto& ct : result) write_ciphertext(ctx, ct, wtr);
    out.matmul_ct_bytes = wtr.take();
    out.matmul_result = mm.decrypt_result(result, dec, tokens, d_out);
  }

  // HGS linear protocol through the full runtime (send_cts/recv_cts paths).
  {
    ProtocolContext pc(HeProfile::kProto2048, 11, {1, 2, 4, 8, 16});
    Rng rng(5);
    const MatI w = random_fp_matrix(rng, d_in, d_out, -1.0, 1.0);
    const std::vector<std::int64_t> bias(d_out, fp_encode(0.25));
    HgsLinear layer(pc, w, bias, tokens, PackingStrategy::kTokensFirst);
    pc.transfer_keys();  // the server evaluates with transferred keys
    const MatI rc = pc.ring.random(pc.client_rng, tokens, d_in);
    layer.offline("qkv", rc);
    const MatI x = random_fp_matrix(rng, tokens, d_in, -2.0, 2.0);
    const MatI d = pc.ring.sub(pc.ring.reduce(x), rc);
    const auto shares = layer.online("qkv", d);
    out.hgs_client = shares.client;
    out.hgs_server = shares.server;
  }
  return out;
}

void expect_same_mat(const MatI& a, const MatI& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at " << i << "," << j;
    }
  }
}

TEST(ParallelDeterminism, ThreadedMatchesSerialBitExactly) {
  PipelineOutput serial, threaded;
  {
    ThreadGuard guard(1);
    serial = run_pipeline();
  }
  {
    ThreadGuard guard(4);
    threaded = run_pipeline();
  }
  ASSERT_EQ(serial.matmul_ct_bytes.size(), threaded.matmul_ct_bytes.size());
  EXPECT_EQ(serial.matmul_ct_bytes, threaded.matmul_ct_bytes)
      << "ciphertext serialization differs between serial and threaded runs";
  expect_same_mat(serial.matmul_result, threaded.matmul_result,
                  "decrypted matmul");
  expect_same_mat(serial.hgs_client, threaded.hgs_client, "HGS client share");
  expect_same_mat(serial.hgs_server, threaded.hgs_server, "HGS server share");
}

}  // namespace
}  // namespace primer
