#include "proto/attention.h"

#include <stdexcept>

namespace primer {

namespace {

// Packs an (n x m) ring matrix into the PackedMatmul output layout:
// ciphertext rc, block b <-> column o = rc*fpc + b, slot b*n + i <-> row i.
std::vector<std::vector<u64>> output_layout_slots(const BatchEncoder& encoder,
                                                  const MatI& val) {
  const std::size_t row = encoder.row_size();
  const std::size_t n = val.rows();
  const std::size_t m = val.cols();
  const std::size_t fpc = row / n;
  const std::size_t cts = (m + fpc - 1) / fpc;
  std::vector<std::vector<u64>> out(cts, std::vector<u64>(row, 0));
  for (std::size_t o = 0; o < m; ++o) {
    const std::size_t rc = o / fpc;
    const std::size_t b = o % fpc;
    for (std::size_t i = 0; i < n; ++i) {
      out[rc][b * n + i] = static_cast<u64>(val(i, o));
    }
  }
  return out;
}

// Subtracts a ring matrix (in output layout) from a ciphertext vector.
void sub_layout_plain(ProtocolContext& pc, std::vector<Ciphertext>& cts,
                      const MatI& val) {
  const auto slots = output_layout_slots(pc.encoder, val);
  for (std::size_t i = 0; i < cts.size(); ++i) {
    pc.eval.sub_plain_inplace(cts[i], pc.encoder.encode(slots[i]));
  }
}

MatI transpose_ring(const MatI& m) { return m.transposed(); }

}  // namespace

// ---------------------------------------------------------------------------
// FhgsProduct
// ---------------------------------------------------------------------------

void FhgsProduct::offline(const std::string& step_name, const MatI& ra,
                          const MatI& rb) {
  pc_.step("offline", step_name, [&] {
    // Client: the FHGS triple.
    const MatI ra_red = pc_.ring.reduce(ra);
    const MatI rb_red = pc_.ring.reduce(rb);
    auto enc_ra = mm_a_.encrypt_input(ra_red, pc_.enc);
    auto enc_rbt = mm_bt_.encrypt_input(transpose_ring(rb_red), pc_.enc);
    const MatI rarb = pc_.ring.mul(ra_red, rb_red);
    const auto rarb_slots = output_layout_slots(pc_.encoder, rarb);
    std::vector<SeededCiphertext> enc_rarb;
    for (const auto& s : rarb_slots) {
      enc_rarb.push_back(pc_.enc.encrypt_seeded(pc_.encoder.encode(s)));
    }
    pc_.send_cts(Party::kClient, enc_ra);
    pc_.send_cts(Party::kClient, enc_rbt);
    pc_.send_cts(Party::kClient, enc_rarb);
    // Server stores the triple.
    enc_ra_ = pc_.recv_cts(Party::kServer);
    enc_rbt_ = pc_.recv_cts(Party::kServer);
    enc_rarb_ = pc_.recv_cts(Party::kServer);
  });
}

LinearShares FhgsProduct::online(const std::string& step_name, const MatI& da,
                                 const MatI& db) {
  LinearShares out;
  pc_.step("online", step_name, [&] {
    const MatI da_red = pc_.ring.reduce(da);
    const MatI db_red = pc_.ring.reduce(db);

    // Server: tmp1 = Da*Db (plaintext).
    const MatI tmp1 = pc_.ring.mul(da_red, db_red);

    // S1 = Enc(Ra)*Db + Enc(Ra*Rb) - Rs1.
    PackedMatmulStats stats;
    auto s1 = mm_a_.multiply(enc_ra_, db_red, n_, pc_.t(), pc_.gk, &stats);
    for (std::size_t i = 0; i < s1.size(); ++i) {
      pc_.eval.add_inplace(s1[i], enc_rarb_[i]);
    }
    const MatI rs1 = pc_.ring.random(pc_.server_rng, n_, m_);
    sub_layout_plain(pc_, s1, rs1);

    // S2 = Enc(Rb^T)*Da^T - Rs2  (= (Da*Rb)^T - Rs2).
    auto s2 = mm_bt_.multiply(enc_rbt_, transpose_ring(da_red), m_, pc_.t(),
                              pc_.gk, &stats);
    const MatI rs2 = pc_.ring.random(pc_.server_rng, m_, n_);
    sub_layout_plain(pc_, s2, rs2);

    pc_.send_cts(Party::kServer, s1);
    pc_.send_cts(Party::kServer, s2);

    // Client: decrypt, transpose the second term, assemble its share.
    const auto c1 = pc_.recv_cts(Party::kClient);
    const auto c2 = pc_.recv_cts(Party::kClient);
    PackedMatmul helper(pc_.he, pc_.encoder, pc_.eval,
                        PackingStrategy::kTokensFirst);
    const MatI p1 = helper.decrypt_result(c1, pc_.dec, n_, m_);
    const MatI p2 = helper.decrypt_result(c2, pc_.dec, m_, n_);
    out.client = pc_.ring.add(p1, transpose_ring(p2));

    // Server share.
    out.server = pc_.ring.add(tmp1, pc_.ring.add(rs1, transpose_ring(rs2)));
  });
  return out;
}

// ---------------------------------------------------------------------------
// CtCtProduct (Primer-base)
// ---------------------------------------------------------------------------

LinearShares CtCtProduct::online(const std::string& step_name, const MatI& ac,
                                 const MatI& as, const MatI& bc,
                                 const MatI& bs) {
  LinearShares out;
  pc_.step("online", step_name, [&] {
    const MatI ac_red = pc_.ring.reduce(ac);
    const MatI as_red = pc_.ring.reduce(as);
    const MatI bc_red = pc_.ring.reduce(bc);
    const MatI bs_red = pc_.ring.reduce(bs);

    // --- ct-pt terms ------------------------------------------------------
    // Ac*Bs: client encrypts Ac, server multiplies by Bs.
    auto enc_ac = mm_a_.encrypt_input(ac_red, pc_.enc);
    // As*Bc = (Bc^T * As^T)^T: client encrypts Bc^T.
    auto enc_bct = mm_bt_.encrypt_input(transpose_ring(bc_red), pc_.enc);
    // Ac*Bc ct-ct term: client packs rows of Ac and columns of Bc as
    // individual ciphertexts (k slots each).
    std::vector<SeededCiphertext> row_cts, col_cts;
    for (std::size_t i = 0; i < n_; ++i) {
      std::vector<u64> slots(k_);
      for (std::size_t j = 0; j < k_; ++j) {
        slots[j] = static_cast<u64>(ac_red(i, j));
      }
      row_cts.push_back(pc_.enc.encrypt_seeded(pc_.encoder.encode(slots)));
    }
    for (std::size_t o = 0; o < m_; ++o) {
      std::vector<u64> slots(k_);
      for (std::size_t j = 0; j < k_; ++j) {
        slots[j] = static_cast<u64>(bc_red(j, o));
      }
      col_cts.push_back(pc_.enc.encrypt_seeded(pc_.encoder.encode(slots)));
    }
    pc_.send_cts(Party::kClient, enc_ac);
    pc_.send_cts(Party::kClient, enc_bct);
    pc_.send_cts(Party::kClient, row_cts);
    pc_.send_cts(Party::kClient, col_cts);

    // --- server side ------------------------------------------------------
    const auto srv_ac = pc_.recv_cts(Party::kServer);
    const auto srv_bct = pc_.recv_cts(Party::kServer);
    const auto srv_rows = pc_.recv_cts(Party::kServer);
    const auto srv_cols = pc_.recv_cts(Party::kServer);

    PackedMatmulStats stats;
    auto s1 = mm_a_.multiply(srv_ac, bs_red, n_, pc_.t(), pc_.gk, &stats);
    const MatI rs1 = pc_.ring.random(pc_.server_rng, n_, m_);
    sub_layout_plain(pc_, s1, rs1);

    auto s2 = mm_bt_.multiply(srv_bct, transpose_ring(as_red), m_, pc_.t(),
                              pc_.gk, &stats);
    const MatI rs2 = pc_.ring.random(pc_.server_rng, m_, n_);
    sub_layout_plain(pc_, s2, rs2);

    // Genuine ct-ct multiplications; each dot product reduces its k_ slots
    // with the BSGS rotate-sum (hoisted baby rotations + doubling giants)
    // instead of log2(k_) full key-switches.
    const MatI rs3 = pc_.ring.random(pc_.server_rng, n_, m_);
    std::vector<Ciphertext> dots;
    dots.reserve(n_ * m_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t o = 0; o < m_; ++o) {
        Ciphertext prod = pc_.eval.multiply(srv_rows[i], srv_cols[o]);
        pc_.eval.relinearize_inplace(prod, pc_.rk);
        pc_.eval.rotate_sum_inplace(prod, k_, pc_.gk);
        std::vector<u64> mask(1, static_cast<u64>(rs3(i, o)));
        pc_.eval.sub_plain_inplace(prod, pc_.encoder.encode(mask));
        dots.push_back(std::move(prod));
      }
    }
    pc_.send_cts(Party::kServer, s1);
    pc_.send_cts(Party::kServer, s2);
    pc_.send_cts(Party::kServer, dots);

    // --- client assembles its share ----------------------------------------
    const auto c1 = pc_.recv_cts(Party::kClient);
    const auto c2 = pc_.recv_cts(Party::kClient);
    const auto cdots = pc_.recv_cts(Party::kClient);
    PackedMatmul helper(pc_.he, pc_.encoder, pc_.eval,
                        PackingStrategy::kTokensFirst);
    const MatI p1 = helper.decrypt_result(c1, pc_.dec, n_, m_);
    const MatI p2 = helper.decrypt_result(c2, pc_.dec, m_, n_);
    MatI p3(n_, m_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t o = 0; o < m_; ++o) {
        const auto slots =
            pc_.encoder.decode(pc_.dec.decrypt(cdots[i * m_ + o]));
        p3(i, o) = static_cast<std::int64_t>(slots[0]);
      }
    }
    out.client =
        pc_.ring.add(pc_.ring.add(p1, transpose_ring(p2)), p3);

    // Server share: As*Bs + all masks.
    const MatI tmp1 = pc_.ring.mul(as_red, bs_red);
    out.server = pc_.ring.add(
        tmp1,
        pc_.ring.add(rs1, pc_.ring.add(transpose_ring(rs2), rs3)));
  });
  return out;
}

// ---------------------------------------------------------------------------
// ChgsScores
// ---------------------------------------------------------------------------

ChgsScores::ChgsScores(ProtocolContext& pc, std::size_t tokens, const MatI& we,
                       const MatI& pos, const MatI& wq_h, const MatI& wk_h)
    : pc_(pc), n_(tokens), we_(pc.ring.reduce(we)),
      pos_(pc.ring.reduce(pos)),
      mm_(pc.he, pc.encoder, pc.eval, PackingStrategy::kTokensFirst) {
  pc_.ensure_rotation_steps(mm_.rotation_steps(n_));
  // Wqk = wq_h * wk_h^T in the ring (2*frac domain).
  wqk_ = pc_.ring.mul(pc_.ring.reduce(wq_h),
                      transpose_ring(pc_.ring.reduce(wk_h)));
  // W_M = WE * Wqk * WE^T.
  w_m_ = pc_.ring.mul(pc_.ring.mul(we_, wqk_), transpose_ring(we_));
}

void ChgsScores::offline(const std::string& step_name, const MatI& r0) {
  pc_.step("offline", step_name, [&] {
    const MatI r0_red = pc_.ring.reduce(r0);
    // Client sends Enc(R0).
    auto enc_r0 = mm_.encrypt_input(r0_red, pc_.enc);
    pc_.send_cts(Party::kClient, enc_r0);
    enc_r0_ = pc_.recv_cts(Party::kServer);

    // (a) Server: Enc(R0*W_M) + S  -> client.
    PackedMatmulStats stats;
    auto g = mm_.multiply(enc_r0_, w_m_, n_, pc_.t(), pc_.gk, &stats);
    const MatI s_mask =
        pc_.ring.random(pc_.server_rng, n_, w_m_.cols());
    {
      const auto slots = output_layout_slots(pc_.encoder, s_mask);
      for (std::size_t i = 0; i < g.size(); ++i) {
        pc_.eval.add_plain_inplace(g[i], pc_.encoder.encode(slots[i]));
      }
    }
    pc_.send_cts(Party::kServer, g);

    // (b) Client: T_c = (R0*W_M + S) * R0^T.
    const auto cg = pc_.recv_cts(Party::kClient);
    const MatI gmat = mm_.decrypt_result(cg, pc_.dec, n_, w_m_.cols());
    const MatI t_c = pc_.ring.mul(gmat, transpose_ring(r0_red));

    // (c) Server: Enc(R0)*S^T - Rs_b -> client.
    auto h = mm_.multiply(enc_r0_, transpose_ring(s_mask), n_, pc_.t(), pc_.gk,
                          &stats);
    const MatI rs_b = pc_.ring.random(pc_.server_rng, n_, n_);
    sub_layout_plain(pc_, h, rs_b);
    pc_.send_cts(Party::kServer, h);

    // (d) Shares of term4 = R0*W_M*R0^T.
    const auto ch = pc_.recv_cts(Party::kClient);
    const MatI hmat = mm_.decrypt_result(ch, pc_.dec, n_, n_);
    term4_client_ = pc_.ring.sub(t_c, transpose_ring(hmat));
    term4_server_ = pc_.ring.sub(MatI(n_, n_), transpose_ring(rs_b));
  });
}

LinearShares ChgsScores::online(const std::string& step_name, const MatI& d0) {
  LinearShares out;
  pc_.step("online", step_name, [&] {
    const MatI d0_red = pc_.ring.reduce(d0);
    // Server: U~ = D0*WE + lambda (positions are public, raw domain).
    const MatI u_srv = pc_.ring.add(pc_.ring.mul(d0_red, we_), pos_);
    // term1 = U~ * Wqk * U~^T.
    const MatI uwqk = pc_.ring.mul(u_srv, wqk_);
    const MatI term1 = pc_.ring.mul(uwqk, transpose_ring(u_srv));

    // term3 = R0 * (WE * Wqk * U~^T): ct-pt with Enc(R0).
    PackedMatmulStats stats;
    const MatI w3 = pc_.ring.mul(we_, pc_.ring.mul(wqk_, transpose_ring(u_srv)));
    auto s_a = mm_.multiply(enc_r0_, w3, n_, pc_.t(), pc_.gk, &stats);
    const MatI rs1 = pc_.ring.random(pc_.server_rng, n_, n_);
    sub_layout_plain(pc_, s_a, rs1);

    // term2 = U~ * Wqk^T... computed transposed: R0 * (WE*Wqk^T*U~^T), then
    // the client transposes after decryption.
    const MatI w2 = pc_.ring.mul(
        we_, pc_.ring.mul(transpose_ring(wqk_), transpose_ring(u_srv)));
    auto s_b = mm_.multiply(enc_r0_, w2, n_, pc_.t(), pc_.gk, &stats);
    const MatI rs2 = pc_.ring.random(pc_.server_rng, n_, n_);
    sub_layout_plain(pc_, s_b, rs2);

    pc_.send_cts(Party::kServer, s_a);
    pc_.send_cts(Party::kServer, s_b);

    // Client: one interaction, assemble share.
    const auto ca = pc_.recv_cts(Party::kClient);
    const auto cb = pc_.recv_cts(Party::kClient);
    const MatI pa = mm_.decrypt_result(ca, pc_.dec, n_, n_);
    const MatI pb = mm_.decrypt_result(cb, pc_.dec, n_, n_);
    out.client = pc_.ring.add(pc_.ring.add(pa, transpose_ring(pb)),
                              term4_client_);

    // Server share.
    out.server = pc_.ring.add(
        term1,
        pc_.ring.add(rs1, pc_.ring.add(transpose_ring(rs2), term4_server_)));
  });
  return out;
}

}  // namespace primer
