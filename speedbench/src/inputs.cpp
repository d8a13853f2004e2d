// speedbench -- inputs made from the seed: checkpoint, prompts, arrivals.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"

namespace speedbench {

namespace {

constexpr std::int32_t kBos = 1;
constexpr std::int32_t kFirstContentToken = 3;  // skip <unk>, BOS, EOS

std::uint64_t Mix(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0x9E3779B97F4A7C15ULL));
  return r.Next();
}

std::int32_t ContentToken(Rng& rng, const Shape& s) {
  return static_cast<std::int32_t>(
      rng.Range(kFirstContentToken, s.vocab_size - 1));
}

std::vector<std::int32_t> RandomPrompt(Rng& rng, const Shape& s,
                                       std::int32_t len) {
  std::vector<std::int32_t> p{kBos};
  while (static_cast<std::int32_t>(p.size()) < len) {
    p.push_back(ContentToken(rng, s));
  }
  return p;
}

// Poisson arrivals at `rate` requests per simulated second, conditioned
// on all of them landing in [0, n / rate): sorted uniform times. The
// offered load is then exactly `rate` in every seed, so seeds move the
// burst pattern but not the average load.
void StampArrivals(std::vector<Request>& reqs, Rng& rng, double rate) {
  const double span = static_cast<double>(reqs.size()) / rate;
  std::vector<double> t(reqs.size());
  for (double& x : t) x = rng.Uniform() * span;
  std::sort(t.begin(), t.end());
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].arrival_s = t[i];
}

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Gauss() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::int64_t Rng::Range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<std::int64_t>(Next() % span);
}

Shape PaperShape() { return {288, 768, 6, 6, 6, 32000, 256}; }
Shape ServeShape() { return {48, 128, 2, 4, 2, 512, 256}; }

float FinalGain(const Shape& shape) {
  return shape.vocab_size >= 32000 ? 8.5f : 8.0f;
}

Checkpoint GenerateCheckpoint(const Shape& s, std::uint64_t seed) {
  Checkpoint ck;
  ck.shape = s;
  const std::size_t dim = s.dim, hid = s.hidden_dim, L = s.n_layers,
                    kv = s.kv_dim(), vocab = s.vocab_size;
  Rng rng(Mix(seed, 1));
  // GPT-2 style init: N(0, 0.02), residual-output projections scaled
  // down by sqrt(2 * n_layers); unit norm gains except the final one.
  const double proj = 0.02;
  const double resid = 0.02 / std::sqrt(2.0 * static_cast<double>(L));
  auto gauss = [&](std::size_t n, double sd) {
    for (std::size_t i = 0; i < n; ++i) {
      ck.data.push_back(static_cast<float>(sd * rng.Gauss()));
    }
  };
  auto fill = [&](std::size_t n, float v) {
    ck.data.insert(ck.data.end(), n, v);
  };
  ck.emb = ck.data.size();       gauss(vocab * dim, proj);
  ck.rms_att = ck.data.size();   fill(L * dim, 1.0f);
  ck.wq = ck.data.size();        gauss(L * dim * dim, proj);
  ck.wk = ck.data.size();        gauss(L * kv * dim, proj);
  ck.wv = ck.data.size();        gauss(L * kv * dim, proj);
  ck.wo = ck.data.size();        gauss(L * dim * dim, resid);
  ck.rms_ffn = ck.data.size();   fill(L * dim, 1.0f);
  ck.w1 = ck.data.size();        gauss(L * hid * dim, proj);
  ck.w2 = ck.data.size();        gauss(L * dim * hid, resid);
  ck.w3 = ck.data.size();        gauss(L * hid * dim, proj);
  ck.rms_final = ck.data.size(); fill(dim, FinalGain(s));
  // Legacy freq_cis tables, written for format fidelity.
  const std::int32_t half = s.head_dim() / 2;
  for (int part = 0; part < 2; ++part) {
    for (std::int32_t p = 0; p < s.seq_len; ++p) {
      for (std::int32_t i = 0; i < half; ++i) {
        const double f = std::pow(10000.0, -2.0 * i / s.head_dim());
        ck.data.push_back(static_cast<float>(part == 0 ? std::cos(p * f)
                                                       : std::sin(p * f)));
      }
    }
  }
  return ck;
}

bool WriteCheckpointFile(const Checkpoint& ck, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const Shape& s = ck.shape;
  const std::int32_t header[7] = {s.dim,        s.hidden_dim, s.n_layers,
                                  s.n_heads,    s.n_kv_heads, s.vocab_size,
                                  s.seq_len};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1 &&
            std::fwrite(ck.data.data(), sizeof(float), ck.data.size(), f) ==
                ck.data.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ------------------------------------------------------------ Reference64

Reference64::Reference64(const Checkpoint& ck)
    : ck_(ck),
      s_(ck.shape),
      x_(s_.dim),
      xb_(s_.dim),
      xb2_(s_.dim),
      hb_(s_.hidden_dim),
      hb2_(s_.hidden_dim),
      q_(s_.dim),
      att_(s_.seq_len),
      logits_(s_.vocab_size),
      kcache_(static_cast<std::size_t>(s_.n_layers) * s_.seq_len * s_.kv_dim()),
      vcache_(kcache_.size()) {}

namespace {

void MatVec(double* out, const float* w, const double* x, std::int64_t d,
            std::int64_t n) {
  for (std::int64_t i = 0; i < d; ++i) {
    const float* row = w + i * n;
    double acc = 0.0;
    for (std::int64_t j = 0; j < n; ++j) acc += row[j] * x[j];
    out[i] = acc;
  }
}

void RmsNorm(double* out, const double* x, const float* g, std::int64_t n) {
  double ss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) ss += x[i] * x[i];
  const double inv = 1.0 / std::sqrt(ss / n + 1e-5);
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] * inv * g[i];
}

}  // namespace

const std::vector<double>& Reference64::Forward(std::int32_t token,
                                                std::int32_t pos) {
  const float* w = ck_.data.data();
  const std::int64_t dim = s_.dim, hid = s_.hidden_dim, kv = s_.kv_dim(),
                     hd = s_.head_dim(), seq = s_.seq_len;
  const std::int32_t group = s_.n_heads / s_.n_kv_heads;
  for (std::int64_t i = 0; i < dim; ++i) x_[i] = w[ck_.emb + token * dim + i];

  for (std::int64_t l = 0; l < s_.n_layers; ++l) {
    RmsNorm(xb_.data(), x_.data(), w + ck_.rms_att + l * dim, dim);
    double* k = &kcache_[(l * seq + pos) * kv];
    double* v = &vcache_[(l * seq + pos) * kv];
    MatVec(q_.data(), w + ck_.wq + l * dim * dim, xb_.data(), dim, dim);
    MatVec(k, w + ck_.wk + l * kv * dim, xb_.data(), kv, dim);
    MatVec(v, w + ck_.wv + l * kv * dim, xb_.data(), kv, dim);
    for (std::int64_t i = 0; i < dim; i += 2) {
      const double freq = std::pow(10000.0, -static_cast<double>(i % hd) / hd);
      const double c = std::cos(pos * freq), sn = std::sin(pos * freq);
      const double q0 = q_[i], q1 = q_[i + 1];
      q_[i] = q0 * c - q1 * sn;
      q_[i + 1] = q0 * sn + q1 * c;
      if (i < kv) {
        const double k0 = k[i], k1 = k[i + 1];
        k[i] = k0 * c - k1 * sn;
        k[i + 1] = k0 * sn + k1 * c;
      }
    }
    for (std::int64_t h = 0; h < s_.n_heads; ++h) {
      const double* qh = &q_[h * hd];
      const std::int64_t kvh = h / group;
      double mx = -1e300;
      for (std::int64_t t = 0; t <= pos; ++t) {
        const double* kt = &kcache_[(l * seq + t) * kv + kvh * hd];
        double sc = 0.0;
        for (std::int64_t i = 0; i < hd; ++i) sc += qh[i] * kt[i];
        att_[t] = sc / std::sqrt(static_cast<double>(hd));
        mx = std::max(mx, att_[t]);
      }
      double sum = 0.0;
      for (std::int64_t t = 0; t <= pos; ++t) {
        att_[t] = std::exp(att_[t] - mx);
        sum += att_[t];
      }
      double* out = &xb_[h * hd];
      for (std::int64_t i = 0; i < hd; ++i) out[i] = 0.0;
      for (std::int64_t t = 0; t <= pos; ++t) {
        const double* vt = &vcache_[(l * seq + t) * kv + kvh * hd];
        const double a = att_[t] / sum;
        for (std::int64_t i = 0; i < hd; ++i) out[i] += a * vt[i];
      }
    }
    MatVec(xb2_.data(), w + ck_.wo + l * dim * dim, xb_.data(), dim, dim);
    for (std::int64_t i = 0; i < dim; ++i) x_[i] += xb2_[i];

    RmsNorm(xb_.data(), x_.data(), w + ck_.rms_ffn + l * dim, dim);
    MatVec(hb_.data(), w + ck_.w1 + l * hid * dim, xb_.data(), hid, dim);
    MatVec(hb2_.data(), w + ck_.w3 + l * hid * dim, xb_.data(), hid, dim);
    for (std::int64_t i = 0; i < hid; ++i) {
      hb_[i] = hb_[i] / (1.0 + std::exp(-hb_[i])) * hb2_[i];
    }
    MatVec(xb_.data(), w + ck_.w2 + l * dim * hid, hb_.data(), dim, hid);
    for (std::int64_t i = 0; i < dim; ++i) x_[i] += xb_[i];
  }
  RmsNorm(xb_.data(), x_.data(), w + ck_.rms_final, dim);
  MatVec(logits_.data(), w + ck_.emb, xb_.data(), s_.vocab_size, dim);
  return logits_;
}

// ------------------------------------------------------------ requests

std::vector<Request> PaperRequests(std::uint64_t seed, const Shape& s) {
  Rng rng(Mix(seed, 2));
  std::vector<Request> out;
  for (std::int32_t len : {8, 16, 32, 64}) {
    const auto n = static_cast<std::int32_t>(len + rng.Range(0, 1));
    out.push_back({RandomPrompt(rng, s, n), kPaperDecodeTokens, 0.0});
  }
  return out;
}

// Chat: unique prompts of 16-96 tokens (every prompt fills at least one
// 16-token KV block, and no two share their first block, so the prefix
// cache is probed on every admission and never hits), 16-64 new tokens.
std::vector<Request> ChatRequests(std::uint64_t seed, const Shape& s) {
  constexpr int kRequests = 1000;
  constexpr double kRate = 8000.0;  // requests per simulated second
  Rng rng(Mix(seed, 3));
  std::set<std::vector<std::int32_t>> first_blocks;
  std::vector<Request> out;
  while (static_cast<int>(out.size()) < kRequests) {
    const auto len = static_cast<std::int32_t>(rng.Range(16, 96));
    std::vector<std::int32_t> p = RandomPrompt(rng, s, len);
    if (!first_blocks.insert({p.begin(), p.begin() + 16}).second) continue;
    out.push_back({std::move(p), static_cast<std::int32_t>(rng.Range(16, 64)),
                   0.0});
  }
  StampArrivals(out, rng, kRate);
  return out;
}

// RAG: four shared 160-token documents. Each document is first
// submitted once on its own at t = 0 (ingest); the question traffic
// starts 1 ms later, once they are cached. A question request is one
// document plus a 16-token question, and one in ten re-asks an earlier
// question on the same document: that whole prompt is cached, so its
// last block is copied on write. 8-16 new tokens, greedy.
std::vector<Request> RagRequests(std::uint64_t seed, const Shape& s) {
  constexpr int kRequests = 1000;
  constexpr int kDocuments = 4;
  constexpr std::int32_t kDocumentTokens = 160;
  constexpr std::int32_t kQuestionTokens = 16;
  constexpr double kRepeatShare = 0.1;
  constexpr double kRate = 20000.0;
  constexpr double kIngestSeconds = 1e-3;
  Rng rng(Mix(seed, 4));
  std::vector<Request> ingest, questions;
  for (int d = 0; d < kDocuments; ++d) {
    ingest.push_back({RandomPrompt(rng, s, kDocumentTokens),
                      static_cast<std::int32_t>(rng.Range(8, 16)), 0.0});
  }
  while (static_cast<int>(questions.size()) < kRequests - kDocuments) {
    std::vector<std::int32_t> p;
    if (!questions.empty() && rng.Uniform() < kRepeatShare) {
      p = questions[rng.Range(0, questions.size() - 1)].prompt;
    } else {
      p = ingest[rng.Range(0, kDocuments - 1)].prompt;
      for (std::int32_t j = 0; j < kQuestionTokens; ++j) {
        p.push_back(ContentToken(rng, s));
      }
    }
    questions.push_back(
        {std::move(p), static_cast<std::int32_t>(rng.Range(8, 16)), 0.0});
  }
  StampArrivals(questions, rng, kRate);
  for (Request& q : questions) q.arrival_s += kIngestSeconds;
  ingest.insert(ingest.end(), questions.begin(), questions.end());
  return ingest;
}

}  // namespace speedbench
