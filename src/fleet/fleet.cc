#include "src/fleet/fleet.h"

#include <algorithm>
#include <string>

#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Prng(0) remaps to this constant; admission-time uniqueness must compare
// the seeds the streams actually run with.
constexpr uint64_t kPrngZeroRemap = 0x9E3779B97F4A7C15ULL;

uint64_t EffectiveSeed(uint64_t seed) { return seed ? seed : kPrngZeroRemap; }

// Calm controller ticks before a degraded session steps one level back up.
constexpr int kTicksToRestore = 10;

}  // namespace

FleetHost::FleetHost(EventLoop* loop, FleetOptions options)
    : loop_(loop), options_(options),
      host_cpu_(loop, options.cpu_speed, options.cpu_cores),
      nic_(loop, options.link.bandwidth_bps) {
  THINC_CHECK(options_.cpu_cores >= 1);
  THINC_CHECK(options_.cpu_headroom > 0 && options_.cpu_headroom <= 1.0);
  THINC_CHECK(options_.nic_headroom > 0 && options_.nic_headroom <= 1.0);
}

uint64_t FleetHost::DeriveSessionSeed(uint64_t fleet_seed, uint64_t session_id) {
  // splitmix64 finalizer over (fleet_seed ^ (id + odd constant)): for a
  // fixed fleet seed this is a bijection of the id, so two sessions of one
  // fleet can never derive the same seed.
  uint64_t z = fleet_seed ^ (session_id + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool FleetHost::FitsHeadroom(const FleetSessionDemand& demand,
                             bool local) const {
  // CPU capacity: one second of host time executes 1e6 * speed * cores
  // reference microseconds of work (K cores run K charges concurrently).
  const double cpu_capacity = 1e6 * options_.cpu_speed * options_.cpu_cores *
                              options_.cpu_headroom;
  if (admitted_cpu_us_per_sec_ + demand.cpu_us_per_sec > cpu_capacity) {
    return false;
  }
  if (local) {
    // A loopback session never touches the NIC: its admission is gated by
    // CPU demand alone.
    return true;
  }
  const double nic_capacity =
      static_cast<double>(options_.link.bandwidth_bps) * options_.nic_headroom;
  const double nic_demand_bps =
      8.0 * static_cast<double>(admitted_nic_bytes_per_sec_ +
                                demand.nic_bytes_per_sec);
  return nic_demand_bps <= nic_capacity;
}

int FleetHost::PredictedCapacity(const FleetSessionDemand& demand) const {
  int cap = INT32_MAX;
  if (demand.cpu_us_per_sec > 0) {
    cap = std::min<int>(
        cap, static_cast<int>(1e6 * options_.cpu_speed * options_.cpu_cores *
                              options_.cpu_headroom / demand.cpu_us_per_sec));
  }
  if (demand.nic_bytes_per_sec > 0) {
    cap = std::min<int>(
        cap, static_cast<int>(static_cast<double>(options_.link.bandwidth_bps) *
                              options_.nic_headroom /
                              (8.0 * static_cast<double>(demand.nic_bytes_per_sec))));
  }
  return cap;
}

FleetHost::Admission FleetHost::AddSession(const FleetSessionDemand& demand,
                                           int64_t weight, bool local,
                                           const DeviceProfile& profile) {
  if (!FitsHeadroom(demand, local)) {
    if (options_.park_beyond_capacity) {
      ++parked_;
      static Counter* parked = MetricsRegistry::Get().GetCounter("fleet.parked");
      parked->Inc();
      return Admission::kParked;
    }
    ++rejected_;
    static Counter* rejected =
        MetricsRegistry::Get().GetCounter("fleet.rejected");
    rejected->Inc();
    return Admission::kRejected;
  }

  // Ids are assigned only on admission, so id == index into sessions_ and
  // the public accessors, the seed derivation, and the telemetry host name
  // all agree on one numbering even after parks/rejects.
  const size_t id = sessions_.size();
  auto s = std::make_unique<FleetSession>();
  s->id = id;
  s->seed = DeriveSessionSeed(options_.seed, id);
  s->local = local;
  s->demand = demand;
  s->profile = profile;
  s->prng = Prng(s->seed);
  ThincServerOptions server_options = options_.server_options;
  server_options.telemetry_host =
      options_.session_name_prefix + std::to_string(id);
  // The device profile chooses the overload ladder (phones degrade
  // resolution first) and names the client's trace host by class so mixed
  // populations stay distinguishable.
  server_options.ladder = profile.ladder;
  ThincClientOptions client_options = options_.client_options;
  client_options.telemetry_host = options_.session_name_prefix +
                                  std::to_string(id) + "-" + profile.name;
  s->Build(loop_, SpecFor(*s, weight, local), &host_cpu_, profile.decode_speed,
           server_options, client_options, [&](ThincServer* server) {
             s->ws = std::make_unique<WindowServer>(
                 options_.screen_width, options_.screen_height, server,
                 &host_cpu_);
             return s->ws.get();
           });
  s->server->SetInputHandler(ClickHandler(s->ws.get(), &s->input_fn));
  const bool viewport =
      profile.NegotiatesViewport(options_.screen_width, options_.screen_height);
  if (viewport) {
    s->client->RequestViewport(profile.screen_width, profile.screen_height);
  }

  Place(std::move(s));
  {
    static Counter* admitted =
        MetricsRegistry::Get().GetCounter("fleet.admitted");
    static Gauge* count = MetricsRegistry::Get().GetGauge("fleet.sessions");
    static Gauge* locals = MetricsRegistry::Get().GetGauge("fleet.local_sessions");
    admitted->Inc();
    count->Set(static_cast<int64_t>(live_sessions_));
    locals->Set(static_cast<int64_t>(local_count_));
    // Device-matrix accounting: which classes this host serves and how many
    // of them needed viewport/loss-path treatment (per-class names are few,
    // so the registry lookup per admission is fine).
    MetricsRegistry::Get()
        .GetCounter(std::string("device.admitted.") +
                    DeviceClassName(profile.klass))
        ->Inc();
    if (viewport) {
      static Counter* viewports =
          MetricsRegistry::Get().GetCounter("device.viewport_negotiations");
      viewports->Inc();
    }
    if (profile.lossy) {
      static Counter* lossy_paths =
          MetricsRegistry::Get().GetCounter("device.lossy_paths");
      lossy_paths->Inc();
    }
  }
  return Admission::kAdmitted;
}

TransportSpec FleetHost::SpecFor(const FleetSession& s, int64_t weight,
                                 bool local) {
  if (local) {
    return {.kind = TransportKind::kLoopback, .loopback = options_.loopback};
  }
  // The profile may override the per-session link (a phone's WAN path is
  // not the datacenter default) and swap the clean wire for a lossy one.
  TransportSpec spec{
      .kind = s.profile.lossy ? TransportKind::kLossy : TransportKind::kWire,
      .link = s.profile.link.value_or(options_.link),
      .send_buffer_bytes = options_.send_buffer_bytes,
      .nic = &nic_,
      .nic_weight = weight,
      .loss = s.profile.loss};
  // Each session's loss process gets its own deterministic substream,
  // derived from the session seed by the same bijective mix that keeps
  // workload streams disjoint (constant tags the loss domain).
  spec.loss.seed = DeriveSessionSeed(s.seed, 0x10551ULL);
  return spec;
}

void FleetHost::Place(std::unique_ptr<FleetSession> s) {
  // Two sessions sharing a PRNG stream would correlate "independent"
  // workloads; the derivation makes it impossible for admitted sessions,
  // and this check keeps it that way for migrated-in ones and if the
  // derivation ever changes. Migrated-out slots are tombstones.
  for (const auto& other : sessions_) {
    THINC_CHECK_MSG(other == nullptr ||
                        EffectiveSeed(other->seed) != EffectiveSeed(s->seed),
                    "fleet sessions must not share a PRNG stream");
  }
  admitted_cpu_us_per_sec_ += s->demand.cpu_us_per_sec;
  if (s->local) {
    ++local_count_;
  } else {
    admitted_nic_bytes_per_sec_ += s->demand.nic_bytes_per_sec;
  }
  ++live_sessions_;
  sessions_.push_back(std::move(s));
}

std::unique_ptr<FleetSession> FleetHost::ExtractSession(size_t id) {
  THINC_CHECK_MSG(has_session(id), "extracting an empty fleet slot");
  std::unique_ptr<FleetSession> s = std::move(sessions_[id]);
  // Park both endpoints: the reset notifies server and client through their
  // closed callbacks (on fresh loop events), after which the server holds
  // its virtual display state and the client its last applied frame.
  if (!s->transport->closed()) {
    s->transport->Reset();
  }
  admitted_cpu_us_per_sec_ -= s->demand.cpu_us_per_sec;
  if (s->local) {
    --local_count_;
  } else {
    admitted_nic_bytes_per_sec_ -= s->demand.nic_bytes_per_sec;
  }
  --live_sessions_;
  static Counter* out = MetricsRegistry::Get().GetCounter("fleet.migrated_out");
  out->Inc();
  return s;
}

std::optional<size_t> FleetHost::InsertSession(
    std::unique_ptr<FleetSession>* session, int64_t weight, bool local) {
  FleetSession* s = session->get();
  THINC_CHECK(s != nullptr);
  if (!FitsHeadroom(s->demand, local)) {
    return std::nullopt;
  }
  const size_t id = sessions_.size();
  s->id = id;
  s->local = local;
  // The old host's transport is spent: rebind the whole stack onto this
  // host's CPU and a fresh transport on its resources, with the
  // differential resync armed.
  s->ws->set_cpu(&host_cpu_);
  s->Rebind(SpecFor(*s, weight, local), &host_cpu_, /*differential=*/true);
  Place(std::move(*session));
  static Counter* in = MetricsRegistry::Get().GetCounter("fleet.migrated_in");
  static Gauge* count = MetricsRegistry::Get().GetGauge("fleet.sessions");
  in->Inc();
  count->Set(static_cast<int64_t>(live_sessions_));
  return id;
}

void FleetHost::ClientClick(size_t id, Point location) {
  sessions_[id]->client->SendInput(location, /*button=*/1);
}

void FleetHost::SetInputCallback(size_t id, InputFn fn) {
  sessions_[id]->input_fn = std::move(fn);
}

void FleetHost::StartController(SimTime until) {
  if (controller_running_) {
    return;
  }
  controller_running_ = true;
  loop_->Schedule(options_.control_interval,
                  [this, until] { ControllerTick(until); });
}

FleetHost::OverloadSignals FleetHost::ComputeOverloadSignals() const {
  const SimTime now = loop_->now();
  OverloadSignals sig;
  // Max-per-core lag: on a K-core host the overload signal is the MOST
  // loaded core, not the least — one core pinned a second behind means some
  // session's pipeline runs a second late even if other cores idle.
  sig.cpu_lag_us = host_cpu_.max_core_lag(now);
  // NIC lag is drain time for everything queued at the uplink. The WFQ
  // scheduler itself holds at most the in-flight segment; the backlog lives
  // in the per-session socket buffers feeding it.
  int64_t socket_bytes = 0;
  int64_t sched_bytes = 0;
  for (const auto& s : sessions_) {
    if (s == nullptr || s->local) {
      // Migrated-out tombstone, or loopback backlog that never wants the
      // wire (its pressure shows up as CPU lag, not NIC lag).
      continue;
    }
    socket_bytes += static_cast<int64_t>(
        s->transport->SendBufferCapacity() -
        s->transport->FreeSpace(Transport::kServer));
    sched_bytes += static_cast<int64_t>(s->server->buffered_bytes());
  }
  const SimTime wire_busy = std::max<SimTime>(0, nic_.busy_until() - now);
  auto drain_time = [this](int64_t bytes) {
    return static_cast<SimTime>(
        bytes * 8 * kSecond /
        std::max<int64_t>(1, options_.link.bandwidth_bps));
  };
  sig.nic_lag_us = wire_busy + drain_time(socket_bytes);
  // At degraded levels the ladder's socket-backlog budget caps socket bytes
  // at a few tens of KiB per session while the real backlog waits in the
  // update scheduler, so nic_lag under-reads uplink demand exactly while
  // degraded. The restore decision therefore also watches scheduler-resident
  // bytes (an upper bound on what still wants the wire — eviction and
  // coalescing only shrink it); restoring on the budget-capped socket metric
  // alone limit-cycles: restore -> socket refloods -> degrade again.
  sig.nic_demand_lag_us = wire_busy + drain_time(socket_bytes + sched_bytes);
  return sig;
}

void FleetHost::ControllerTick(SimTime until) {
  const SimTime now = loop_->now();
  const OverloadSignals sig = ComputeOverloadSignals();
  const SimTime cpu_lag = sig.cpu_lag_us;
  const SimTime nic_lag = sig.nic_lag_us;
  const SimTime nic_demand_lag = sig.nic_demand_lag_us;
  static Counter* ticks = MetricsRegistry::Get().GetCounter("fleet.controller_ticks");
  static Gauge* cpu_lag_g = MetricsRegistry::Get().GetGauge("fleet.cpu_lag_us");
  static Gauge* nic_lag_g = MetricsRegistry::Get().GetGauge("fleet.nic_lag_us");
  static Gauge* demand_g =
      MetricsRegistry::Get().GetGauge("fleet.nic_demand_lag_us");
  static Gauge* level_g = MetricsRegistry::Get().GetGauge("fleet.degrade_level");
  static Counter* downs = MetricsRegistry::Get().GetCounter("fleet.degradations");
  static Counter* ups = MetricsRegistry::Get().GetCounter("fleet.restores");
  // cpu.* — the shared host CPU seen as a multi-core account; sim.* — event
  // loop health (queue depth, churn), cheap to read here since the
  // controller already samples every resource each tick.
  static Gauge* cpu_cores_g = MetricsRegistry::Get().GetGauge("cpu.cores");
  static Gauge* cpu_max_lag_g =
      MetricsRegistry::Get().GetGauge("cpu.max_core_lag_us");
  static Gauge* cpu_min_lag_g =
      MetricsRegistry::Get().GetGauge("cpu.earliest_free_lag_us");
  static Gauge* cpu_busy_g =
      MetricsRegistry::Get().GetGauge("cpu.total_busy_us");
  static Gauge* sim_pending_g =
      MetricsRegistry::Get().GetGauge("sim.pending_events");
  static Gauge* sim_fired_g = MetricsRegistry::Get().GetGauge("sim.fired_events");
  static Gauge* sim_cancelled_g =
      MetricsRegistry::Get().GetGauge("sim.cancelled_events");
  ticks->Inc();
  cpu_lag_g->Set(cpu_lag);
  nic_lag_g->Set(nic_lag);
  demand_g->Set(nic_demand_lag);
  cpu_cores_g->Set(host_cpu_.cores());
  cpu_max_lag_g->Set(cpu_lag);
  cpu_min_lag_g->Set(std::max<SimTime>(0, host_cpu_.earliest_free() - now));
  cpu_busy_g->Set(host_cpu_.total_busy());
  sim_pending_g->Set(static_cast<int64_t>(loop_->pending_count()));
  sim_fired_g->Set(static_cast<int64_t>(loop_->fired_count()));
  sim_cancelled_g->Set(static_cast<int64_t>(loop_->cancelled_count()));

  if (options_.degradation_enabled) {
    // Degrade on host-wide pressure only: the shared CPU or NIC running
    // further behind than a burst can explain admits no per-session remedy —
    // every session sheds load together. Scheduler backlog is deliberately
    // not a *degrade* trigger (it pins high during any single page burst
    // even on an idle host), but it does gate *restores*: stepping back up
    // is only safe once the pent-up demand it represents has drained, not
    // merely once the budget-capped socket metric looks calm.
    const bool host_hot =
        cpu_lag > options_.overload_lag || nic_lag > options_.overload_lag;
    const bool demand_hot = nic_demand_lag > options_.overload_lag;
    int max_level = 0;
    for (auto& s : sessions_) {
      if (s == nullptr) {
        continue;  // migrated-out tombstone
      }
      if (host_hot) {
        s->under_ticks = 0;
        if (++s->over_ticks >= options_.ticks_to_degrade) {
          s->over_ticks = 0;
          const int level = s->server->degradation_level();
          if (level < kMaxDegradationLevel) {
            s->server->SetDegradationLevel(level + 1);
            downs->Inc();
          }
        }
      } else if (demand_hot) {
        // Hold the current level: not hot enough to degrade further, but the
        // backlog behind the socket budget would reflood the wire on
        // restore.
        s->over_ticks = 0;
        s->under_ticks = 0;
      } else {
        s->over_ticks = 0;
        if (++s->under_ticks >= kTicksToRestore) {
          s->under_ticks = 0;
          const int level = s->server->degradation_level();
          if (level > 0) {
            s->server->SetDegradationLevel(level - 1);
            ups->Inc();
          }
        }
      }
      max_level = std::max(max_level, s->server->degradation_level());
    }
    level_g->Set(max_level);
  }

  if (now + options_.control_interval <= until) {
    loop_->Schedule(options_.control_interval,
                    [this, until] { ControllerTick(until); });
  } else {
    controller_running_ = false;
  }
}

}  // namespace thinc
