#include "proto/runtime.h"

#include <cstring>

#include "common/env.h"
#include "common/parallel.h"
#include "he/codec.h"
#include "net/crc32c.h"

namespace primer {

namespace {

constexpr std::size_t kMaxGaloisKeys = 4096;
// Version of the HE wire encoding (he/codec.h), part of the parameter
// fingerprint: a peer or checkpoint from another encoding is another session.
constexpr std::uint32_t kHeWireVersion = 2;

}  // namespace

SessionOptions SessionOptions::from_env() {
  SessionOptions o;
  o.faults = FaultSpec::from_env();
  o.retry = RetryPolicy::from_env();
  o.phase_deadline_s =
      env_double("PRIMER_PHASE_DEADLINE_S", 0.0, 0.0, 86400.0);
  return o;
}

ProtocolContext::ProtocolContext(HeProfile profile, std::uint64_t seed,
                                 std::vector<int> rotation_steps,
                                 SessionOptions options)
    : he(make_params(profile)),
      encoder(he),
      client_rng(seed),
      server_rng(seed ^ 0x5deece66dULL),
      keygen(he, client_rng),
      enc(he, keygen.secret_key(), client_rng),
      dec(he, keygen.secret_key()),
      eval(he),
      client_gk(keygen.make_galois_keys(rotation_steps)),
      client_rk(keygen.make_relin_key()),
      gk(expand_keys(he, client_gk)),
      rk(expand_keys(he, client_rk)),
      session(std::move(options)),
      framed(channel, session.faults, session.retry),
      ring(he.t()) {
  // Parameter fingerprint for the resume handshake: a peer with a
  // different profile, modulus chain or seed is a different session.
  ByteWriter w;
  w.u32(kHeWireVersion);
  w.u64(seed);
  w.u64(he.t());
  w.u64(he.degree());
  for (std::size_t j = 0; j < he.rns_size(); ++j) w.u64(he.q(j));
  params_hash_ = crc32c(w.data().data(), w.size());
  deadline.configure(&channel, session.phase_deadline_s, session.cancel);
  framed.set_deadline(&deadline);
  if (session.cancel != nullptr) set_parallel_cancel_token(session.cancel);
}

ProtocolContext::~ProtocolContext() {
  if (session.cancel != nullptr) set_parallel_cancel_token(nullptr);
}

void ProtocolContext::ensure_rotation_steps(const std::vector<int>& steps) {
  for (const int s : steps) {
    keygen.add_galois_key(client_gk, he.galois_elt_from_step(s));
  }
}

void ProtocolContext::step(const std::string& phase,
                           const std::string& step_name,
                           const std::function<void()>& fn) {
  if (deadline.enabled()) {
    deadline.check("step " + phase + "/" + step_name);
  }
  if (session.progress != nullptr) {
    session.progress->beat(phase.c_str());
    session.progress->on_step();
  }
  const auto net_before = channel.snapshot();
  const HeOpCounters he_before = eval.counters();
  dec.take_min_margin();  // reset so the step sees only its own margins
  CpuWallTimer timer;
  fn();
  const double secs = timer.wall_seconds();
  const double cpu = timer.cpu_seconds();
  const auto net_delta = channel.delta_since(net_before);
  PhaseCost& cost = costs.at(phase, step_name);
  cost.compute_seconds += secs;
  cost.cpu_seconds += cpu;
  cost.network_seconds += net_delta.seconds;
  cost.bytes_sent += net_delta.bytes;
  cost.rounds += net_delta.flights;
  const HeOpCounters& now = eval.counters();
  cost.he_mults += now.plain_mults - he_before.plain_mults;
  cost.he_ct_mults += now.ct_mults - he_before.ct_mults;
  cost.he_rotations += now.rotations - he_before.rotations;
  cost.min_noise_margin_bits =
      std::min(cost.min_noise_margin_bits, dec.take_min_margin());
}

void ProtocolContext::start_session() {
  deadline.start_phase("handshake");
  if (session.store == nullptr) return;
  SessionStore& store = *session.store;
  const auto before = channel.snapshot();

  // Client opens with its checkpoint inventory...
  SessionHello hello;
  hello.session_id = session.session_id;
  hello.params_hash = params_hash_;
  hello.epochs = store.digests(Party::kClient);
  framed.send(Party::kClient, MessageKind::kSessionHello, hello.serialize());

  // ...the server validates identity/parameters and picks the resume epoch.
  const auto hb = framed.recv_expect(Party::kServer, MessageKind::kSessionHello);
  const SessionHello peer =
      SessionHello::deserialize(hb, "server parsing session hello");
  const std::uint32_t agreed = negotiate_resume_epoch(
      peer, session.session_id, params_hash_, store, Party::kServer);
  SessionResume resume;
  resume.agreed_epoch = agreed;
  if (agreed != 0) {
    resume.digest = store.load(Party::kServer, agreed)->digest();
  }
  framed.send(Party::kServer, MessageKind::kSessionResume, resume.serialize());

  // Client cross-checks the server's choice against its own store and both
  // sides install the replay plan.
  const auto rb = framed.recv_expect(Party::kClient, MessageKind::kSessionResume);
  const SessionResume r =
      SessionResume::deserialize(rb, "client parsing session resume");
  FramedChannel::ReplayPlan plan;
  if (r.agreed_epoch != 0) {
    const auto cp = store.load(Party::kClient, r.agreed_epoch);
    if (!cp.has_value() || cp->digest() != r.digest) {
      throw ProtocolError(
          ProtocolErrorKind::kResumeDiverged,
          "client: server selected checkpoint epoch " +
              std::to_string(r.agreed_epoch) +
              " but the local copy is missing or its digest disagrees");
    }
    for (int d = 0; d < 2; ++d) {
      plan.virtual_until[d] = cp->send_watermark[d];
      plan.journal_base[d] = cp->journal_base[d];
      plan.expect_crc[d] = cp->frame_crc[d];
    }
  }
  resumed_epoch_ = r.agreed_epoch;
  epoch_ = r.agreed_epoch;
  framed.begin_session(session.session_id, r.agreed_epoch, plan);
  handshake_bytes_ = channel.delta_since(before).bytes;
  deadline.start_phase("protocol");
}

void ProtocolContext::checkpoint(const std::string& completed) {
  if (session.store != nullptr) {
    SessionCheckpoint cp;
    cp.session_id = session.session_id;
    cp.epoch = ++epoch_;
    cp.phase = completed;
    cp.params_hash = params_hash_;
    for (int d = 0; d < 2; ++d) {
      const Party p = static_cast<Party>(d);
      cp.send_watermark[d] = framed.sent_count(p);
      cp.journal_base[d] = framed.journal_base(p);
      cp.frame_crc[d] = framed.journal(p);
      for (std::size_t k = 0; k < kMessageKindCount; ++k) {
        cp.kind_counts[d][k] = framed.kind_count(p, static_cast<MessageKind>(k));
      }
    }
    cp.wire_bytes = channel.total_bytes();
    // Both parties persist the (identical) snapshot; on a resumed attempt
    // re-saving an epoch below the agreed one rewrites the same blob and
    // heals snapshots one side had lost.
    session.store->save(Party::kClient, cp);
    session.store->save(Party::kServer, cp);
    framed.set_epoch(epoch_);
    if (session.progress != nullptr) session.progress->on_checkpoint(epoch_);
    // Drain catches the run at the boundary *after* the snapshot is
    // persisted: the next request for this client resumes from here.
    if (session.drain != nullptr &&
        session.drain->load(std::memory_order_acquire)) {
      throw SessionDrained(epoch_, completed);
    }
  }
  deadline.start_phase("after_" + completed);
}

namespace {

// A key frame is exactly one seeded key; the server expands it on arrival.
KSwitchKey read_key_frame(const std::vector<std::uint8_t>& payload,
                          const HeContext& he) {
  ByteReader r(payload);
  return expand_key(he, read_kswitch_key(he, r));
}

std::vector<std::uint8_t> key_frame(const HeContext& he,
                                    const SeededKSwitchKey& key) {
  ByteWriter w;
  w.reserve(kswitch_key_wire_bytes(he.params(), key.digits()));
  write_kswitch_key(he, key, w);
  return w.take();
}

std::size_t record_bytes(const HeContext& he, const Ciphertext& ct) {
  return ciphertext_wire_bytes(he.params(), CtForm::kEvaluated, ct.size());
}

std::size_t record_bytes(const HeContext& he, const SeededCiphertext&) {
  return ciphertext_wire_bytes(he.params(), CtForm::kSeeded);
}

// u32 count, then one record per ciphertext.  Record sizes are fixed by
// the context, so the whole payload is laid out first and every record is
// encoded in parallel straight into its slot.
template <class Ct>
std::vector<std::uint8_t> encode_cts(const HeContext& he,
                                     const std::vector<Ct>& cts) {
  std::vector<std::size_t> offset(cts.size() + 1, sizeof(std::uint32_t));
  for (std::size_t i = 0; i < cts.size(); ++i) {
    offset[i + 1] = offset[i] + record_bytes(he, cts[i]);
  }
  std::vector<std::uint8_t> payload(offset.back());
  const auto count = static_cast<std::uint32_t>(cts.size());
  std::memcpy(payload.data(), &count, sizeof count);
  parallel_for(0, cts.size(), [&](std::size_t i) {
    write_ciphertext(he, cts[i], payload.data() + offset[i]);
  });
  return payload;
}

}  // namespace

void ProtocolContext::transfer_keys(const std::string& phase) {
  step(phase, "key_transfer", [&] {
    // Client side: manifest (which Galois elements follow), then one frame
    // per Galois key, then the relinearization key.  Per-key frames give
    // the chaos harness kill points *inside* the multi-MB transfer — the
    // phase the checkpoint layer exists to amortize.
    ByteWriter mw;
    mw.u32(static_cast<std::uint32_t>(client_gk.keys.size()));
    for (const auto& [elt, key] : client_gk.keys) mw.u64(elt);
    framed.send(Party::kClient, MessageKind::kKeyMaterial, mw.take());
    for (const auto& [elt, key] : client_gk.keys) {
      framed.send(Party::kClient, MessageKind::kKeyMaterial,
                  key_frame(he, key));
    }
    framed.send(Party::kClient, MessageKind::kKeyMaterial,
                key_frame(he, client_rk.key));

    // Server side: the deserialized copies *replace* gk/rk, so evaluation
    // runs on keys that genuinely crossed the fault-injected wire.
    const auto mb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
    std::vector<u64> elts;
    try {
      ByteReader r(mb);
      const std::uint32_t count = r.u32();
      if (count > kMaxGaloisKeys) {
        throw std::runtime_error("manifest lists " + std::to_string(count) +
                                 " Galois keys (cap " +
                                 std::to_string(kMaxGaloisKeys) + ")");
      }
      elts.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) elts.push_back(r.u64());
      if (!r.done()) throw std::runtime_error("trailing bytes after manifest");
    } catch (const std::exception& e) {
      throw ProtocolError(ProtocolErrorKind::kMalformed,
                          "server: key manifest rejected: " + std::string(e.what()));
    }
    GaloisKeys ngk;
    for (const u64 elt : elts) {
      const auto kb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
      try {
        ngk.keys[elt] = read_key_frame(kb, he);
      } catch (const std::exception& e) {
        throw ProtocolError(ProtocolErrorKind::kMalformed,
                            "server: Galois key for element " +
                                std::to_string(elt) +
                                " rejected: " + e.what());
      }
    }
    RelinKey nrk;
    {
      const auto kb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
      try {
        nrk.key = read_key_frame(kb, he);
      } catch (const std::exception& e) {
        throw ProtocolError(ProtocolErrorKind::kMalformed,
                            "server: relinearization key rejected: " +
                                std::string(e.what()));
      }
    }
    gk = std::move(ngk);
    rk = std::move(nrk);
  });
}

void ProtocolContext::send_cts(Party from, const std::vector<Ciphertext>& cts) {
  framed.send(from, MessageKind::kCiphertexts, encode_cts(he, cts));
}

void ProtocolContext::send_cts(Party from,
                               const std::vector<SeededCiphertext>& cts) {
  framed.send(from, MessageKind::kCiphertexts, encode_cts(he, cts));
}

std::vector<Ciphertext> ProtocolContext::recv_cts(Party to) {
  const auto bytes = framed.recv_expect(to, MessageKind::kCiphertexts);
  try {
    ByteReader r(bytes);
    const auto count = r.u32();
    // No record is smaller than a one-part evaluated ciphertext, so any
    // count beyond remaining/min is a lie — reject before sizing vectors.
    const std::size_t min_record =
        ciphertext_wire_bytes(he.params(), CtForm::kEvaluated, 1);
    if (count > r.remaining() / min_record) {
      throw std::out_of_range("recv_cts: ciphertext count " +
                              std::to_string(count) + " exceeds payload");
    }
    // Each record's size follows from its two header bytes: scan the
    // record bounds, then decode every record independently.
    std::vector<std::size_t> begin(count), end(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      begin[i] = r.position();
      r.skip(peek_ciphertext_bytes(he, r));
      end[i] = r.position();
    }
    if (!r.done()) {
      throw std::out_of_range("recv_cts: " + std::to_string(r.remaining()) +
                              " trailing bytes after the last ciphertext");
    }
    std::vector<Ciphertext> cts(count);
    parallel_for(0, count, [&](std::size_t i) {
      ByteReader slice(bytes, begin[i], end[i]);
      cts[i] = read_ciphertext(he, slice);
    });
    return cts;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // The frame passed its checksum, so this is a structurally invalid
    // payload (hostile sender or framing bug), not wire noise.
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        std::string(party_name(to)) +
                            ": ciphertext payload rejected: " + e.what());
  }
}

void ProtocolContext::send_ring(Party from, const MatI& m) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(m.rows()));
  w.u32(static_cast<std::uint32_t>(m.cols()));
  // Ring values fit in share_bits() bits; ship them packed 5 bytes per
  // value for t < 2^40 (the live profiles) to keep traffic realistic.
  const std::size_t bytes_per = (share_bits() + 7) / 8;
  for (const auto v : m.data()) {
    w.bytes(&v, bytes_per);
  }
  framed.send(from, MessageKind::kRingMatrix, w.take());
}

MatI ProtocolContext::recv_ring(Party to, std::size_t rows, std::size_t cols) {
  const auto bytes = framed.recv_expect(to, MessageKind::kRingMatrix);
  try {
    ByteReader r(bytes);
    const auto rr = r.u32();
    const auto cc = r.u32();
    if (rr != rows || cc != cols) {
      throw std::runtime_error("recv_ring: shape " + std::to_string(rr) + "x" +
                               std::to_string(cc) + ", expected " +
                               std::to_string(rows) + "x" +
                               std::to_string(cols));
    }
    MatI m(rows, cols);
    const std::size_t bytes_per = (share_bits() + 7) / 8;
    for (auto& v : m.data()) {
      std::int64_t x = 0;
      r.bytes(&x, bytes_per);
      v = x;
    }
    return m;
  } catch (const std::exception& e) {
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        std::string(party_name(to)) +
                            ": ring-matrix payload rejected: " + e.what());
  }
}

std::vector<bool> ProtocolContext::ring_bits(const MatI& m) const {
  const std::size_t w = share_bits();
  std::vector<bool> bits;
  bits.reserve(m.size() * w);
  for (const auto v : m.data()) {
    for (std::size_t b = 0; b < w; ++b) {
      bits.push_back((static_cast<std::uint64_t>(v) >> b) & 1);
    }
  }
  return bits;
}

MatI ProtocolContext::bits_to_ring(const std::vector<bool>& bits,
                                   std::size_t rows, std::size_t cols) const {
  const std::size_t w = share_bits();
  MatI m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < w; ++b) {
      if (bits[i * w + b]) v |= std::uint64_t{1} << b;
    }
    m.data()[i] = static_cast<std::int64_t>(v);
  }
  return m;
}

}  // namespace primer
