#include "store/cell_key.hpp"

#include <sstream>

#include "sim/engine_version.hpp"
#include "util/hash.hpp"

namespace afs {
namespace {

constexpr const char* kKeySchema = "afs-store-key-v1";

const char* interconnect_name(Interconnect ic) {
  switch (ic) {
    case Interconnect::kBus: return "bus";
    case Interconnect::kSwitch: return "switch";
    case Interconnect::kRing: return "ring";
  }
  return "?";
}

}  // namespace

std::string machine_key(const MachineConfig& m) {
  std::ostringstream os;
  os << "machine name=" << m.name << " procs=" << m.max_processors
     << " ic=" << interconnect_name(m.interconnect)
     << " work=" << key_double(m.work_unit_time)
     << " cache=" << key_double(m.cache_capacity)
     << " miss=" << key_double(m.miss_latency)
     << " xfer=" << key_double(m.transfer_unit_time)
     << " lsync=" << key_double(m.local_sync_time)
     << " rsync=" << key_double(m.remote_sync_time)
     << " modfact=" << key_double(m.modfact_sync_multiplier)
     << " probe=" << key_double(m.probe_time)
     << " inval=" << key_double(m.invalidate_time)
     << " bar=" << key_double(m.barrier_base) << '+'
     << key_double(m.barrier_per_proc)
     << " jitter=" << key_double(m.epoch_jitter);
  return os.str();
}

std::string perturb_key(const PerturbationConfig& p) {
  std::ostringstream os;
  os << "perturb seed=" << p.seed << " delays=[";
  for (std::size_t k = 0; k < p.start_delays.size(); ++k)
    os << (k ? "," : "") << key_double(p.start_delays[k]);
  os << "] stall=" << key_double(p.stall_mean_interval) << '/'
     << key_double(p.stall_duration) << " losses=[";
  for (std::size_t k = 0; k < p.losses.size(); ++k)
    os << (k ? "," : "") << p.losses[k].proc << '@'
       << key_double(p.losses[k].time);
  os << "] spike=" << key_double(p.mem_spike_prob) << '/'
     << key_double(p.mem_spike_latency)
     << " burst=" << key_double(p.burst_mean_interval) << '/'
     << key_double(p.burst_duration) << '/'
     << key_double(p.burst_multiplier);
  return os.str();
}

CellKeyPrefix::CellKeyPrefix(const MachineConfig& machine,
                             const SimOptions& options)
    : storable_(options.trace == nullptr && !options.time_phases) {
  std::ostringstream head;
  head << kKeySchema << '\n'
       << "engine " << kEngineVersion << '\n'
       << machine_key(machine) << '\n';
  head_ = std::move(head).str();
  // The engine toggles (batching, memory fast path, calendar queue,
  // epoch batching) are part of the key even though all are proven
  // bit-identical: tab7's batching A/B invariant check must actually run
  // both engines, not be served the first one's result twice.
  std::ostringstream tail;
  tail << "jitter_seed " << options.jitter_seed << '\n'
       << "batch " << (options.batch_iterations ? 1 : 0) << '\n'
       << "memfast " << (options.memory_fast_path ? 1 : 0) << '\n'
       << "calendar " << (options.calendar_queue ? 1 : 0) << '\n'
       << "epochbatch " << (options.epoch_batch ? 1 : 0) << '\n'
       << perturb_key(options.perturb) << '\n';
  tail_ = std::move(tail).str();
}

CellKey CellKeyPrefix::key(const std::string& program_key,
                           const std::string& scheduler_key,
                           int procs) const {
  CellKey key;
  key.cacheable =
      storable_ && !program_key.empty() && !scheduler_key.empty();
  key.text = head_ + "program " + program_key + "\nscheduler " +
             scheduler_key + "\nprocs " + std::to_string(procs) + '\n' +
             tail_;
  key.hash = fnv1a64(key.text);
  return key;
}

CellKey make_cell_key(const MachineConfig& machine,
                      const std::string& program_key,
                      const std::string& scheduler_key, int procs,
                      const SimOptions& options) {
  return CellKeyPrefix(machine, options).key(program_key, scheduler_key,
                                             procs);
}

}  // namespace afs
