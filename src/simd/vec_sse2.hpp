#pragma once

#if defined(__SSE2__)

#include <emmintrin.h>
#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif

#include <cstdint>

namespace swh::simd {

/// 16 unsigned 8-bit lanes (SSE2). See vec_scalar.hpp for the interface
/// contract shared by all backends.
struct U8x16 {
    using lane_type = std::uint8_t;
    static constexpr int kLanes = 16;

    __m128i v;

    static U8x16 zero() { return {_mm_setzero_si128()}; }

    static U8x16 splat(std::uint8_t x) {
        return {_mm_set1_epi8(static_cast<char>(x))};
    }

    static U8x16 load(const std::uint8_t* p) {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
    }

    void store(std::uint8_t* p) const {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }

    friend U8x16 adds(U8x16 a, U8x16 b) { return {_mm_adds_epu8(a.v, b.v)}; }
    friend U8x16 subs(U8x16 a, U8x16 b) { return {_mm_subs_epu8(a.v, b.v)}; }
    friend U8x16 vmax(U8x16 a, U8x16 b) { return {_mm_max_epu8(a.v, b.v)}; }

    U8x16 shl_lane() const { return {_mm_slli_si128(v, 1)}; }

    friend bool any_gt(U8x16 a, U8x16 b) {
        // Unsigned "a > b" == saturating a-b is nonzero in some lane.
        const __m128i diff = _mm_subs_epu8(a.v, b.v);
        const __m128i eq0 = _mm_cmpeq_epi8(diff, _mm_setzero_si128());
        return _mm_movemask_epi8(eq0) != 0xFFFF;
    }

    friend U8x16 zero_lanes(U8x16 a, std::uint64_t lanes) {
        // Byte l of `spread` holds mask byte l/8; testing it against
        // bit l%8 turns the mask into a byte-per-lane select.
        constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
        const __m128i spread = _mm_set_epi64x(
            static_cast<long long>(kOnes * ((lanes >> 8) & 0xFF)),
            static_cast<long long>(kOnes * (lanes & 0xFF)));
        const __m128i bit = _mm_set1_epi64x(
            static_cast<long long>(0x8040201008040201ULL));
        const __m128i hit = _mm_cmpeq_epi8(_mm_and_si128(spread, bit), bit);
        return {_mm_andnot_si128(hit, a.v)};
    }

    std::uint8_t hmax() const {
        __m128i m = _mm_max_epu8(v, _mm_srli_si128(v, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xFF);
    }

    /// Per-lane gather from a 32-entry byte table (indices < 32). With
    /// SSSE3 this is two PSHUFBs selected on index bit 4; the plain-SSE2
    /// fallback gathers through memory (correct, slower — only hit on
    /// builds without SSSE3).
    friend U8x16 lookup32(const std::uint8_t* table, U8x16 idx) {
#if defined(__SSSE3__)
        const __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
        const __m128i hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16));
        // Indices are < 32, so the signed compare against 15 is exact;
        // PSHUFB uses only the low 4 index bits for the in-table slot.
        const __m128i sel = _mm_cmpgt_epi8(idx.v, _mm_set1_epi8(15));
        const __m128i rl = _mm_shuffle_epi8(lo, idx.v);
        const __m128i rh = _mm_shuffle_epi8(hi, idx.v);
        return {_mm_or_si128(_mm_andnot_si128(sel, rl),
                             _mm_and_si128(sel, rh))};
#else
        alignas(16) std::uint8_t ix[16];
        alignas(16) std::uint8_t out[16];
        _mm_store_si128(reinterpret_cast<__m128i*>(ix), idx.v);
        for (int i = 0; i < 16; ++i) out[i] = table[ix[i] & 31];
        return {_mm_load_si128(reinterpret_cast<const __m128i*>(out))};
#endif
    }
};

/// 8 signed 16-bit lanes (SSE2).
struct I16x8 {
    using lane_type = std::int16_t;
    static constexpr int kLanes = 8;

    __m128i v;

    static I16x8 zero() { return {_mm_setzero_si128()}; }

    static I16x8 splat(std::int16_t x) { return {_mm_set1_epi16(x)}; }

    static I16x8 load(const std::int16_t* p) {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
    }

    void store(std::int16_t* p) const {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }

    friend I16x8 adds(I16x8 a, I16x8 b) { return {_mm_adds_epi16(a.v, b.v)}; }
    friend I16x8 subs(I16x8 a, I16x8 b) { return {_mm_subs_epi16(a.v, b.v)}; }
    friend I16x8 vmax(I16x8 a, I16x8 b) { return {_mm_max_epi16(a.v, b.v)}; }

    I16x8 shl_lane() const { return {_mm_slli_si128(v, 2)}; }

    friend bool any_gt(I16x8 a, I16x8 b) {
        return _mm_movemask_epi8(_mm_cmpgt_epi16(a.v, b.v)) != 0;
    }

    std::int16_t hmax() const {
        __m128i m = _mm_max_epi16(v, _mm_srli_si128(v, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xFFFF);
    }
};

/// Zero-extends lanes 0..7 of a u8 vector to i16, preserving lane order
/// (unpack against zero is an in-order widening).
inline I16x8 widen_lo(U8x16 a) {
    return {_mm_unpacklo_epi8(a.v, _mm_setzero_si128())};
}

/// Zero-extends lanes 8..15.
inline I16x8 widen_hi(U8x16 a) {
    return {_mm_unpackhi_epi8(a.v, _mm_setzero_si128())};
}

}  // namespace swh::simd

#endif  // __SSE2__
