// Bulk uniform generation across many streams: the per-draw half of the
// SIMD lane layer (docs/MODEL.md §14).
//
// The batched engine refills lifetimes for a whole lane at once, one
// draw per trial stream. Scalar xoshiro is already cheap, but one call
// per draw serializes: each stream's next output is a short dependent
// chain, and the call boundary stops the chains from overlapping.
// The AVX-512 backend advances W = 8 *distinct* streams' states through
// one W-wide xoshiro step per block round — the same shifts, xors and
// rotates, W states side by side — then converts the outputs with the
// exact arithmetic of RandomStream::uniform_open. Each stream's state
// and output are bit-identical to a scalar uniform_open() call, so the
// engine's reproducibility contract (docs/MODEL.md §12) is untouched.
//
// Preconditions: streams[0..n) must point at distinct streams (the
// batched engine guarantees this — a lane refill draws at most once per
// trial). Duplicate pointers within one SIMD block would step a state
// once where the scalar loop steps it twice.
#pragma once

#include <cstddef>

#include "rng/rng.h"
#include "util/cpu_features.h"

namespace raidrel::rng {

/// out[i] = streams[i]->uniform_open() for i in [0, n), in index order.
using FillUniformOpenFn = void (*)(RandomStream* const streams[],
                                   double out[], std::size_t n);

/// The backend for `isa`, clamped to the detected hardware tier. Every
/// backend (including kGeneric) produces bit-identical output; the tier
/// only decides how many streams step per round.
FillUniformOpenFn fill_uniform_open_backend(util::SimdIsa isa) noexcept;

}  // namespace raidrel::rng
