// google-benchmark micro benchmarks for the compute substrates: field
// arithmetic, AES primitives, Shamir dealing/reconstruction, and the
// simulator's hot loop. These pin the constant factors behind every
// simulated round.
#include <benchmark/benchmark.h>

#include "core/protocol.hpp"
#include "core/shamir.hpp"
#include "core/wire.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/bigint.hpp"
#include "crypto/cmac.hpp"
#include "crypto/feldman.hpp"
#include "crypto/prng.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/minicast.hpp"
#include "field/fp61_batch.hpp"
#include "field/lagrange.hpp"
#include "net/testbeds.hpp"

using namespace mpciot;

// Backend-parameterized benchmarks encode the requested backend in
// range(0) via these constants; a backend the build/CPU cannot run is
// reported as skipped rather than silently measured on the fallback.
namespace {
constexpr std::int64_t kBackendScalar = 0;
constexpr std::int64_t kBackendSimd = 1;

bool select_field_backend(benchmark::State& state) {
  const auto want = state.range(0) == kBackendSimd
                        ? field::fp61_batch::Backend::kAvx2
                        : field::fp61_batch::Backend::kScalar;
  if (!field::fp61_batch::force_backend(want)) {
    state.SkipWithError("AVX2 backend unavailable");
    return false;
  }
  return true;
}

bool select_aes_backend(benchmark::State& state) {
  if (!crypto::aes_backend::force_aesni(state.range(0) == kBackendSimd)) {
    state.SkipWithError("AES-NI backend unavailable");
    return false;
  }
  return true;
}

void backend_arg_names(benchmark::internal::Benchmark* b) {
  b->Arg(kBackendScalar)->Arg(kBackendSimd);
}
}  // namespace

static void BM_Fp61Mul(benchmark::State& state) {
  field::Fp61 a{0x123456789ABCDEFull};
  const field::Fp61 b{0xFEDCBA987654321ull};
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Fp61Mul);

static void BM_Fp61Inverse(benchmark::State& state) {
  const field::Fp61 a{0x123456789ABCDEFull};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_Fp61Inverse);

static void BM_PolynomialEvaluate(benchmark::State& state) {
  crypto::CtrDrbg drbg(1, 0);
  const auto poly = field::Polynomial::random_with_secret(
      field::Fp61{7}, static_cast<std::size_t>(state.range(0)),
      [&] { return drbg.next_fp61(); });
  const field::Fp61 x{12345};
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.evaluate(x));
  }
}
BENCHMARK(BM_PolynomialEvaluate)->Arg(8)->Arg(15)->Arg(31);

static void BM_LagrangeAtZero(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  crypto::Xoshiro256 rng(2);
  std::vector<field::Sample> samples;
  for (std::size_t i = 0; i <= k; ++i) {
    samples.push_back(field::Sample{field::Fp61{i + 1}, rng.next_fp61()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::interpolate_at_zero(samples));
  }
}
BENCHMARK(BM_LagrangeAtZero)->Arg(8)->Arg(15)->Arg(31);

static void BM_Fp61BatchMul1k(benchmark::State& state) {
  if (!select_field_backend(state)) return;
  crypto::Xoshiro256 rng(11);
  std::vector<std::uint64_t> a(1024), b(1024), out(1024);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.next_fp61().value();
    b[i] = rng.next_fp61().value();
  }
  for (auto _ : state) {
    field::fp61_batch::mul(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
  field::fp61_batch::force_backend(field::fp61_batch::Backend::kAvx2);
}
BENCHMARK(BM_Fp61BatchMul1k)->Apply(backend_arg_names);

static void BM_Fp61BatchHorner1k(benchmark::State& state) {
  if (!select_field_backend(state)) return;
  crypto::Xoshiro256 rng(12);
  std::vector<std::uint64_t> coeffs(16), xs(1024), out(1024);
  for (auto& c : coeffs) c = rng.next_fp61().value();
  for (auto& x : xs) x = rng.next_fp61().value();
  for (auto _ : state) {
    field::fp61_batch::horner_eval(coeffs, xs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
  field::fp61_batch::force_backend(field::fp61_batch::Backend::kAvx2);
}
BENCHMARK(BM_Fp61BatchHorner1k)->Apply(backend_arg_names);

static void BM_EvaluateMany45(benchmark::State& state) {
  if (!select_field_backend(state)) return;
  crypto::CtrDrbg drbg(13, 0);
  const auto poly = field::Polynomial::random_with_secret(
      field::Fp61{7}, 15, [&] { return drbg.next_fp61(); });
  std::vector<field::Fp61> xs(45), out(45);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = field::Fp61{i + 1};
  for (auto _ : state) {
    poly.evaluate_many(xs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 45);
  field::fp61_batch::force_backend(field::fp61_batch::Backend::kAvx2);
}
BENCHMARK(BM_EvaluateMany45)->Apply(backend_arg_names);

static void BM_LagrangeAtZeroWarm(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  crypto::Xoshiro256 rng(14);
  std::vector<field::Sample> samples;
  for (std::size_t i = 0; i <= k; ++i) {
    samples.push_back(field::Sample{field::Fp61{i + 1}, rng.next_fp61()});
  }
  field::LagrangeScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::reconstruct_at_zero(samples, scratch));
  }
}
BENCHMARK(BM_LagrangeAtZeroWarm)->Arg(8)->Arg(15)->Arg(31);

static void BM_AesEncryptBlock(benchmark::State& state) {
  const crypto::Aes128 aes(crypto::Aes128::Key{});
  crypto::Aes128::Block block{};
  for (auto _ : state) {
    block = aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

static void BM_AesCtr64Bytes(benchmark::State& state) {
  const crypto::AesCtr ctr(crypto::Aes128::Key{});
  std::vector<std::uint8_t> buf(64, 0xAB);
  const auto nonce = crypto::AesCtr::make_nonce(1, 2, 3, 4);
  for (auto _ : state) {
    ctr.crypt(nonce, buf, buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AesCtr64Bytes);

static void BM_AesEncryptBlocks64(benchmark::State& state) {
  if (!select_aes_backend(state)) return;
  const crypto::Aes128 aes(crypto::Aes128::Key{});
  std::vector<std::uint8_t> buf(64 * 16, 0x3C);
  for (auto _ : state) {
    aes.encrypt_blocks(buf.data(), buf.data(), 64);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          16);
  crypto::aes_backend::force_aesni(crypto::aes_backend::aesni_supported());
}
BENCHMARK(BM_AesEncryptBlocks64)->Apply(backend_arg_names);

static void BM_AesCtr1KiB(benchmark::State& state) {
  if (!select_aes_backend(state)) return;
  const crypto::AesCtr ctr(crypto::Aes128::Key{});
  std::vector<std::uint8_t> buf(1024, 0xAB);
  const auto nonce = crypto::AesCtr::make_nonce(1, 2, 3, 4);
  for (auto _ : state) {
    ctr.crypt(nonce, buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  crypto::aes_backend::force_aesni(crypto::aes_backend::aesni_supported());
}
BENCHMARK(BM_AesCtr1KiB)->Apply(backend_arg_names);

static void BM_CtrDrbgFill1KiB(benchmark::State& state) {
  if (!select_aes_backend(state)) return;
  crypto::CtrDrbg drbg(21, 0);
  std::vector<std::uint8_t> buf(1024);
  for (auto _ : state) {
    drbg.fill(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  crypto::aes_backend::force_aesni(crypto::aes_backend::aesni_supported());
}
BENCHMARK(BM_CtrDrbgFill1KiB)->Apply(backend_arg_names);

static void BM_FeldmanVerifyShare(benchmark::State& state) {
  crypto::CtrDrbg drbg(22, 0);
  const auto poly = field::Polynomial::random_with_secret(
      field::Fp61{42}, 8, [&] { return drbg.next_fp61(); });
  const auto commitment = crypto::feldman::commit(poly);
  const field::Fp61 x{17};
  const field::Fp61 share = poly.evaluate(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::feldman::verify_share(commitment, x, share));
  }
}
BENCHMARK(BM_FeldmanVerifyShare);

static void BM_FeldmanVerifyCached(benchmark::State& state) {
  crypto::CtrDrbg drbg(22, 0);
  const auto poly = field::Polynomial::random_with_secret(
      field::Fp61{42}, 8, [&] { return drbg.next_fp61(); });
  const auto commitment = crypto::feldman::commit(poly);
  const crypto::feldman::VerifyContext ctx(commitment);
  const field::Fp61 x{17};
  const field::Fp61 share = poly.evaluate(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.verify(x, share));
  }
}
BENCHMARK(BM_FeldmanVerifyCached);

static void BM_Cmac16Bytes(benchmark::State& state) {
  const crypto::Cmac mac(crypto::Aes128::Key{});
  const std::vector<std::uint8_t> msg(16, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute(msg));
  }
}
BENCHMARK(BM_Cmac16Bytes);

static void BM_ShamirDealAllShares(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = core::paper_degree(n);
  for (auto _ : state) {
    crypto::CtrDrbg drbg(3, 0);
    const core::ShamirDealer dealer(field::Fp61{42}, k, drbg);
    for (NodeId h = 0; h < n; ++h) {
      benchmark::DoNotOptimize(dealer.share_for(h));
    }
  }
}
BENCHMARK(BM_ShamirDealAllShares)->Arg(26)->Arg(45);

static void BM_BigIntPowmod256(benchmark::State& state) {
  crypto::Xoshiro256 rng(4);
  const crypto::BigInt base = crypto::BigInt::random_bits(256, rng);
  const crypto::BigInt exp = crypto::BigInt::random_bits(256, rng);
  const crypto::BigInt mod = crypto::BigInt::random_bits(256, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::powmod(base, exp, mod));
  }
}
BENCHMARK(BM_BigIntPowmod256);

static void BM_MiniCastRoundFlocklab(benchmark::State& state) {
  const net::Topology topo = net::testbeds::flocklab();
  std::vector<ct::ChainEntry> entries;
  for (NodeId i = 0; i < topo.size(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) entries.push_back(ct::ChainEntry{i});
  }
  std::uint64_t seed = 0;
  for (auto _ : state) {
    crypto::Xoshiro256 rng(++seed);
    ct::MiniCastConfig cfg;
    cfg.initiator = topo.center_node();
    cfg.ntx = 6;
    benchmark::DoNotOptimize(run_minicast(topo, entries, cfg, rng));
  }
}
BENCHMARK(BM_MiniCastRoundFlocklab);

// Naive S3's sharing chain on the DCube-like testbed: 45 sources x 45
// holders = 2025 entries at NTX 24 (what core::suggest_s3_ntx returns
// there), run on a warm RoundContext the way a Session's steady-state
// rounds are. Most sub-slots of a chain slot repeat a transmitter set,
// so this row tracks the per-slot arbitration memo.
static void BM_MiniCastS3ChainDcube(benchmark::State& state) {
  const net::Topology topo = net::testbeds::dcube();
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const ct::SharingSchedule sharing =
      ct::make_sharing_schedule(sources, sources);
  ct::MiniCastConfig cfg;
  cfg.initiator = topo.center_node();
  cfg.ntx = 24;
  cfg.payload_bytes = core::SharePacket::kWireSize;
  cfg.max_chain_slots = 512;
  cfg.scheduled_owners = sources;
  ct::RoundContext scratch;
  ct::MiniCastResult result;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    crypto::Xoshiro256 rng(++seed);
    ct::run_minicast_into(topo, sharing.entries, cfg, rng, scratch, result);
    benchmark::DoNotOptimize(result.rx_slot.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MiniCastS3ChainDcube);

BENCHMARK_MAIN();
