#pragma once
// Seeded input generation. Everything the system receives during a run
// comes from here and is a pure function of the workload seed.

#include <cstdint>
#include <vector>

#include "core/fov.hpp"
#include "net/wire.hpp"
#include "retrieval/query.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace e2e {

/// The retained day every workload lives in (CrowdConfig's default window).
constexpr svg::core::TimestampMs kDayStart = 1'400'000'000'000;
constexpr svg::core::TimestampMs kDayMs = 24LL * 3600 * 1000;
constexpr svg::core::TimestampMs kHourMs = 3600LL * 1000;

/// A retained corpus of `segments` representative FoVs, grouped per video
/// the way real uploads are: each video follows one
/// sim::make_random_trajectory path inside `area` (the default walk, drive,
/// bike and rotate mix), starts inside [start, start + length) and has
/// 8–14 consecutive segments of 4–12 s, each taking the pose at its start.
/// Video ids count up from `first_video_id`; upload ids are left 0.
[[nodiscard]] std::vector<svg::net::UploadMessage> retained_corpus(
    std::size_t segments, const svg::sim::CityModel& area,
    svg::core::TimestampMs start, svg::core::TimestampMs length,
    std::uint64_t first_video_id, svg::util::Xoshiro256& rng);

/// A query with the paper's shapes: r̂ of 20 m (residential) or 100 m
/// (highway), a 1–2 h window starting uniformly in [window_from,
/// window_to), and a centre uniform over `area`.
[[nodiscard]] svg::retrieval::Query make_query(
    const svg::sim::CityModel& area, svg::core::TimestampMs window_from,
    svg::core::TimestampMs window_to, svg::util::Xoshiro256& rng);

/// Recording sessions of `providers` phones (sim::generate_crowd with the
/// default movement mix, 1–2 min sessions) inside `area`, starting within
/// [start, start + length).
[[nodiscard]] std::vector<svg::sim::ProviderSession> crowd_sessions(
    std::uint32_t providers, const svg::sim::CityModel& area,
    svg::core::TimestampMs start, svg::core::TimestampMs length,
    svg::util::Xoshiro256& rng);

/// Arrival offsets (seconds from the start of the timed phase) of a
/// Poisson process at `rate_per_s`, over [0, seconds).
[[nodiscard]] std::vector<double> poisson_arrivals(double rate_per_s,
                                                   double seconds,
                                                   svg::util::Xoshiro256& rng);

}  // namespace e2e
