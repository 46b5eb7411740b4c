#include "inputs.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

using namespace svg;

std::vector<net::UploadMessage> retained_corpus(
    std::size_t segments, const sim::CityModel& area,
    core::TimestampMs start, core::TimestampMs length,
    std::uint64_t first_video_id, util::Xoshiro256& rng) {
  const sim::CrowdConfig mix;  // the default walk/drive/bike/rotate weights
  const double w_total = mix.w_walk + mix.w_drive + mix.w_bike + mix.w_rotate;
  std::vector<net::UploadMessage> out;
  std::size_t made = 0;
  std::uint64_t video_id = first_video_id;
  while (made < segments) {
    net::UploadMessage msg;
    msg.video_id = video_id++;
    const double pick = rng.uniform(0.0, w_total);
    const sim::MovementKind kind =
        pick < mix.w_walk                               ? sim::MovementKind::kWalk
        : pick < mix.w_walk + mix.w_drive               ? sim::MovementKind::kDrive
        : pick < mix.w_walk + mix.w_drive + mix.w_bike  ? sim::MovementKind::kBike
                                                        : sim::MovementKind::kRotate;
    const std::size_t n = std::min<std::size_t>(8 + rng.bounded(7),
                                                segments - made);
    std::vector<double> dur_s(n);
    double total_s = 0.0;
    for (double& d : dur_s) total_s += d = rng.uniform(4.0, 12.0);
    const auto path = sim::make_random_trajectory(kind, area, total_s, rng);
    core::TimestampMs t =
        start + static_cast<core::TimestampMs>(
                    rng.bounded(static_cast<std::uint64_t>(length)));
    double offset_s = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const sim::Pose pose = path->at(offset_s);
      core::RepresentativeFov rep;
      rep.video_id = msg.video_id;
      rep.segment_id = static_cast<std::uint32_t>(s);
      rep.fov.p = pose.position;
      rep.fov.theta_deg = pose.heading_deg;
      rep.t_start = t;
      rep.t_end = t + static_cast<core::TimestampMs>(1000.0 * dur_s[s]);
      msg.segments.push_back(rep);
      t = rep.t_end + 33;
      offset_s += dur_s[s];
    }
    made += n;
    out.push_back(std::move(msg));
  }
  return out;
}

retrieval::Query make_query(const sim::CityModel& area,
                            core::TimestampMs window_from,
                            core::TimestampMs window_to,
                            util::Xoshiro256& rng) {
  retrieval::Query q;
  q.center = area.random_point(rng);
  q.radius_m = rng.uniform() < 0.5 ? 20.0 : 100.0;
  const auto span = static_cast<std::uint64_t>(
      std::max<core::TimestampMs>(1, window_to - window_from));
  q.t_start = window_from + static_cast<core::TimestampMs>(rng.bounded(span));
  q.t_end = q.t_start + kHourMs +
            static_cast<core::TimestampMs>(rng.bounded(kHourMs));
  return q;
}

std::vector<sim::ProviderSession> crowd_sessions(std::uint32_t providers,
                                                 const sim::CityModel& area,
                                                 core::TimestampMs start,
                                                 core::TimestampMs length,
                                                 util::Xoshiro256& rng) {
  sim::CrowdConfig cfg;
  cfg.providers = providers;
  cfg.min_duration_s = 60.0;
  cfg.max_duration_s = 120.0;
  cfg.window_start = start;
  cfg.window_length_ms = length;
  return sim::generate_crowd(area, cfg, rng);
}

std::vector<double> poisson_arrivals(double rate_per_s, double seconds,
                                     util::Xoshiro256& rng) {
  std::vector<double> out;
  if (rate_per_s <= 0.0) return out;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 − u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace e2e
