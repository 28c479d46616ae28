// Microbenchmarks of the exact-arithmetic backbone: BigInt multiply /
// divmod / fused accumulate, CountVector convolution, and Rational
// normalization — the kernels every Shapley engine in this library bottoms
// out in.
//
// Each multiply/divmod family is benchmarked twice on the same values: once
// through the production BigInt (64-bit limbs, inline small-value storage,
// Karatsuba, Knuth-D) and once through the retained seed implementation
// RefBigInt (tests/support/bigint_reference.h: 32-bit limbs, schoolbook,
// shift-subtract). Both rows land in the same BENCH_arith.json, so the arith
// gate of tools/check_bench.py can gate the seed-vs-current speedup from a
// single run on a single machine — no cross-host baseline drift.
//
// Arg = operand size in 64-bit limbs (the Ref rows hold the same values,
// i.e. twice as many 32-bit limbs).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/bigint.h"
#include "support/bigint_reference.h"
#include "util/count_vector.h"
#include "util/random.h"
#include "util/rational.h"

namespace {

using namespace shapcq;

// Deterministic dense operand of the requested 64-bit limb count, assembled
// once per benchmark setup; 32-bit chunk assembly works for both classes.
template <typename T>
T RandomValue(Rng* rng, size_t limbs64) {
  T result(0);
  for (size_t i = 0; i < limbs64; ++i) {
    result = result.ShiftLeft(32) +
             T(static_cast<int64_t>(rng->Next() & 0xffffffffu));
    result = result.ShiftLeft(32) +
             T(static_cast<int64_t>(rng->Next() & 0xffffffffu));
  }
  return result;
}

void BM_BigIntMul(benchmark::State& state) {
  const size_t limbs = static_cast<size_t>(state.range(0));
  Rng rng(limbs * 1000003 + 1);
  const BigInt a = RandomValue<BigInt>(&rng, limbs);
  const BigInt b = RandomValue<BigInt>(&rng, limbs);
  for (auto _ : state) {
    BigInt product = a * b;
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Arg(32)->Arg(48)->Arg(64)->Arg(96)->Arg(128);

void BM_RefBigIntMul(benchmark::State& state) {
  const size_t limbs = static_cast<size_t>(state.range(0));
  Rng rng(limbs * 1000003 + 1);  // same seed: same values as BM_BigIntMul
  const RefBigInt a = RandomValue<RefBigInt>(&rng, limbs);
  const RefBigInt b = RandomValue<RefBigInt>(&rng, limbs);
  for (auto _ : state) {
    RefBigInt product = a * b;
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_RefBigIntMul)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Arg(32)->Arg(48)->Arg(64)->Arg(96)->Arg(128);

void BM_BigIntDivMod(benchmark::State& state) {
  const size_t limbs = static_cast<size_t>(state.range(0));
  Rng rng(limbs * 2000029 + 3);
  const BigInt dividend = RandomValue<BigInt>(&rng, 2 * limbs);
  const BigInt divisor = RandomValue<BigInt>(&rng, limbs);
  for (auto _ : state) {
    BigInt quotient, remainder;
    BigInt::DivMod(dividend, divisor, &quotient, &remainder);
    benchmark::DoNotOptimize(quotient);
    benchmark::DoNotOptimize(remainder);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_RefBigIntDivMod(benchmark::State& state) {
  const size_t limbs = static_cast<size_t>(state.range(0));
  Rng rng(limbs * 2000029 + 3);
  const RefBigInt dividend = RandomValue<RefBigInt>(&rng, 2 * limbs);
  const RefBigInt divisor = RandomValue<RefBigInt>(&rng, limbs);
  for (auto _ : state) {
    RefBigInt quotient, remainder;
    RefBigInt::DivMod(dividend, divisor, &quotient, &remainder);
    benchmark::DoNotOptimize(quotient);
    benchmark::DoNotOptimize(remainder);
  }
}
BENCHMARK(BM_RefBigIntDivMod)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The fused convolution kernel exactly as CountVector uses it: accumulate
// a[i]*b[j] products into a dense cell array.
void BM_BigIntAddProductOf(benchmark::State& state) {
  const size_t limbs = static_cast<size_t>(state.range(0));
  Rng rng(limbs * 3000017 + 7);
  const BigInt a = RandomValue<BigInt>(&rng, limbs);
  const BigInt b = RandomValue<BigInt>(&rng, limbs);
  BigInt accumulator(0);
  for (auto _ : state) {
    accumulator.AddProductOf(a, b);
    benchmark::DoNotOptimize(accumulator);
  }
}
BENCHMARK(BM_BigIntAddProductOf)->Arg(1)->Arg(2)->Arg(8)->Arg(32);

// A convolution cascade of the shape the CntSat recursion produces: fold
// all-subsets vectors together, cells growing from one limb upward. This is
// the end-to-end consumer of the limb pool + inline storage.
void BM_ConvolveCascade(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CountVector acc;
    for (size_t i = 0; i < parts; ++i) {
      acc.ConvolveWith(CountVector::All(8));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ConvolveCascade)->Arg(4)->Arg(8)->Arg(16);

// Rational normalization with factorial-sized common factors: binary gcd
// plus two exact divisions per construction.
void BM_RationalNormalize(benchmark::State& state) {
  const int64_t n = state.range(0);
  BigInt numerator(1), denominator(1), common(1);
  for (int64_t i = 2; i <= n; ++i) common *= BigInt(i);         // n!
  for (int64_t i = 2; i <= n / 2; ++i) numerator *= BigInt(i);  // (n/2)!
  for (int64_t i = 2; i <= n / 3; ++i) denominator *= BigInt(i);
  const BigInt scaled_num = numerator * common;
  const BigInt scaled_den = denominator * common;
  for (auto _ : state) {
    Rational reduced(scaled_num, scaled_den);
    benchmark::DoNotOptimize(reduced);
  }
}
BENCHMARK(BM_RationalNormalize)->Arg(20)->Arg(60)->Arg(120);

}  // namespace

BENCHMARK_MAIN();
