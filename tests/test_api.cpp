// Tests for the public API (core/primer_api.h): session lifecycle, report
// formatting, reference verification, input validation, and durable
// kill -> resume through SessionOptions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/primer_api.h"

namespace primer {
namespace {

TEST(Api, SessionRunsAndVerifies) {
  Rng rng(3);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kFP, rng);
  const std::vector<std::size_t> tokens = {1, 2, 3, 4};
  auto result = session.infer(tokens);
  EXPECT_EQ(result.logits, session.reference_logits(tokens));
  EXPECT_EQ(result.logits.size(), bert_nano().num_classes);
  EXPECT_LT(result.predicted, result.logits.size());
}

TEST(Api, ReportContainsAllSteps) {
  Rng rng(4);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kF, rng);
  auto result = session.infer({0, 1, 2, 3});
  const std::string text = report(result);
  for (const char* key : {"prediction", "offline", "online", "traffic",
                          "key_transfer", "embed", "qkv", "softmax",
                          "others"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(Api, RejectsNonPowerOfTwoConfigs) {
  Rng rng(5);
  // Paper-size models (n = 30 tokens) cannot run live; the engine says so
  // up front instead of failing deep inside the packing.
  auto cfg = bert_nano();
  cfg.tokens = 6;  // not a power of two
  const auto w = quantize(BertWeightsD::random(cfg, rng));
  EXPECT_THROW(PrimerEngine(w, PrimerVariant::kF), std::invalid_argument);
}

TEST(Api, RejectsOutOfVocabToken) {
  Rng rng(6);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kF, rng);
  EXPECT_THROW(session.infer({1000, 0, 0, 0}), std::invalid_argument);
}

TEST(Api, DeterministicAcrossSessionsWithSameSeed) {
  Rng rng_a(9), rng_b(9);
  auto wa = quantize(BertWeightsD::random(bert_nano(), rng_a));
  auto wb = quantize(BertWeightsD::random(bert_nano(), rng_b));
  PrivateInferenceSession sa(wa, PrimerVariant::kFP);
  PrivateInferenceSession sb(wb, PrimerVariant::kFP);
  const std::vector<std::size_t> tokens = {8, 8, 8, 8};
  EXPECT_EQ(sa.infer(tokens).logits, sb.infer(tokens).logits);
}

// Scratch directory inside the build tree (ctest's cwd), removed on exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "primer_api_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Api, DurableInferSurvivesKillBitIdentical) {
  Rng rng(12);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kFP, rng);
  const std::vector<std::size_t> tokens = {3, 17, 9, 28};

  // A clean checkpointed run sizes the kill point: half its wire frames.
  SessionStore probe_store;
  SessionOptions probe = SessionOptions::from_env();
  probe.store = &probe_store;
  const std::uint64_t frames = session.infer(tokens, probe).frames_sent;

  TempDir tmp;
  DurableSessionStore store(tmp.path);
  SessionOptions options = SessionOptions::from_env();
  options.store = &store;
  options.max_restarts = 5;
  options.faults.kill_after = frames / 2;
  const PrimerRunResult result = session.infer(tokens, options);

  EXPECT_EQ(result.logits, session.reference_logits(tokens));
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GT(result.replayed_bytes, 0u);  // resumed, not rerun
  EXPECT_GT(store.telemetry().fsyncs, 0u);  // checkpoints reached the disk
}

}  // namespace
}  // namespace primer
