#include "workloads.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <termios.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiments/registry.hpp"
#include "service/client.hpp"
#include "stats.hpp"

extern char** environ;

namespace perf {
namespace fs = std::filesystem;
using afs::service::JsonValue;
using afs::service::json_quote;

namespace {

/// Longest a single child process may run before the benchmark gives up
/// on it (the whole run must end within 180 s).
constexpr double kChildTimeoutS = 150.0;

// ------------------------------------------------------------- processes

/// Process groups of the live children, for the termination handler.
constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void track_child(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack_child(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t mine = pid;
    if (slot.compare_exchange_strong(mine, 0)) return;
  }
}

extern "C" void kill_children_and_exit(int sig) {
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(-pid, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// One child process in its own process group. The destructor kills and
/// reaps whatever is still running, so no path out of the benchmark —
/// including an exception — leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child() { kill_and_reap(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` with stdin from /dev/null and stderr appended to
  /// `log_path`. With `pty`, stdout is a pseudo-terminal whose master end
  /// is out_fd(), so the child's stdio is line-buffered and every line is
  /// seen when it is printed; otherwise stdout also goes to `log_path`.
  void spawn(const std::vector<std::string>& argv, bool pty,
             const std::string& log_path) {
    int slave = -1;
    if (pty) {
      out_fd_ = ::posix_openpt(O_RDWR | O_NOCTTY | O_CLOEXEC);
      if (out_fd_ < 0 || ::grantpt(out_fd_) != 0 || ::unlockpt(out_fd_) != 0)
        throw std::runtime_error(std::string("pty: ") + std::strerror(errno));
      const char* name = ::ptsname(out_fd_);
      slave = name ? ::open(name, O_RDWR | O_NOCTTY | O_CLOEXEC) : -1;
      if (slave < 0)
        throw std::runtime_error(std::string("pty slave: ") +
                                 std::strerror(errno));
      termios tio{};
      if (::tcgetattr(slave, &tio) == 0) {
        ::cfmakeraw(&tio);
        ::tcsetattr(slave, TCSANOW, &tio);
      }
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (pty)
      posix_spawn_file_actions_adddup2(&fa, slave, 1);
    else
      posix_spawn_file_actions_adddup2(&fa, 2, 1);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    sigset_t none, defaults;
    sigemptyset(&none);
    sigemptyset(&defaults);
    sigaddset(&defaults, SIGPIPE);  // the benchmark ignores it; children must not
    posix_spawnattr_setsigmask(&attr, &none);
    posix_spawnattr_setsigdefault(&attr, &defaults);
    posix_spawnattr_setpgroup(&attr, 0);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGMASK |
                                        POSIX_SPAWN_SETSIGDEF |
                                        POSIX_SPAWN_SETPGROUP);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc =
        ::posix_spawn(&pid_, args[0], &fa, &attr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    posix_spawnattr_destroy(&attr);
    if (slave >= 0) ::close(slave);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
    }
    track_child(pid_);
  }

  int out_fd() const { return out_fd_; }

  /// Waits up to `timeout_s` for the child to exit. False on timeout.
  bool wait(double timeout_s, int& status, rusage& ru) {
    const double deadline = now_s() + timeout_s;
    while (pid_ > 0) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped();
        return r > 0;
      }
      if (now_s() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// True when the child has already exited (and is then reaped).
  bool exited() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) != pid_) return false;
    reaped();
    return true;
  }

  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(-pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    reaped();
  }

 private:
  void reaped() {
    if (pid_ > 0) untrack_child(pid_);
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Reads the pty of a running batch pass until the child closes it,
/// handing every complete line to `on_line` with the time it was read.
template <typename OnLine>
bool drain_lines(Child& child, double deadline, OnLine on_line,
                 double& first_byte) {
  std::string buf;
  char chunk[16384];
  while (true) {
    pollfd p{child.out_fd(), POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    const double t = now_s();
    if (t > deadline) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::read(child.out_fd(), chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EIO: every writer of the pty has exited
    }
    if (first_byte == 0.0) first_byte = t;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0, eol;
    while ((eol = buf.find('\n', start)) != std::string::npos) {
      on_line(std::string_view(buf).substr(start, eol - start), t);
      start = eol + 1;
    }
    buf.erase(0, start);
  }
  if (!buf.empty()) on_line(buf, now_s());
  return true;
}

std::int64_t witness_field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos
             ? -1
             : std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

void install_termination_handler() {
  struct sigaction sa {};
  sa.sa_handler = kill_children_and_exit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

// ---------------------------------------------------------------- pins

void Ledger::fail(const std::string& what, std::int64_t n) {
  failed += n;
  if (problems.size() < 20) problems.push_back(what);
}

void Ledger::merge(const Ledger& other) {
  attempted += other.attempted;
  failed += other.failed;
  csv_mismatch += other.csv_mismatch;
  for (const std::string& p : other.problems)
    if (problems.size() < 20) problems.push_back(p);
}

bool load_pins(const std::string& path, Pins& out, std::string& error) {
  std::string text;
  if (!read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  JsonValue doc;
  if (!afs::service::parse_json(text, doc, error)) return false;
  const auto strings = [&](const char* key,
                           std::map<std::string, std::string>& m) {
    if (const JsonValue* o = doc.find(key))
      for (const auto& [k, v] : o->object) m[k] = v.string;
  };
  strings("csv_sha256", out.csv_sha256);
  strings("pool_sha256", out.pool_sha256);
  if (const JsonValue* o = doc.find("counts"))
    for (const auto& [k, v] : o->object)
      out.counts[k] = static_cast<std::int64_t>(v.number);
  if (out.csv_sha256.empty() || out.pool_sha256.empty() || out.counts.empty()) {
    error = path + " lacks csv_sha256, pool_sha256 or counts";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- batch

std::vector<std::string> runnable_experiment_ids() {
  std::vector<std::string> ids;
  for (const afs::Experiment& e : afs::all_experiments())
    if (e.kind != afs::ExperimentKind::kMicro) ids.push_back(e.id);
  return ids;
}

BatchPass run_batch_pass(const Env& env, const std::string& out_dir,
                         const std::string& store, bool warm, Ledger& ledger,
                         SpanRecorder& spans) {
  const std::vector<std::string> ids = runnable_experiment_ids();
  BatchPass pass;
  pass.out_dir = out_dir;
  std::error_code ec;
  fs::remove_all(out_dir, ec);
  fs::create_directories(out_dir);
  settle_disk(out_dir);
  ledger.attempted += static_cast<std::int64_t>(ids.size());

  Child child;
  const double t0 = now_s();
  child.spawn({env.exe, "run", "--all", "--jobs=4", "--out-dir=" + out_dir,
               "--store=" + store},
              true, out_dir + ".stderr");
  std::vector<double> headers;
  std::string witness;
  double first_byte = 0.0;
  const bool drained = drain_lines(
      child, t0 + kChildTimeoutS,
      [&](std::string_view line, double t) {
        if (line.substr(0, 3) == "== ") headers.push_back(t);
        if (line.substr(0, 12) == "store: hits=") witness = std::string(line);
      },
      first_byte);
  const double t_output_end = now_s();
  int status = 0;
  rusage ru{};
  if (!drained || !child.wait(30.0, status, ru)) {
    ledger.fail("batch pass timed out", static_cast<std::int64_t>(ids.size()));
    return pass;
  }
  const double t1 = now_s();
  pass.wall_s = t1 - t0;
  pass.first_byte_s = first_byte > 0.0 ? first_byte - t0 : pass.wall_s;
  pass.rss_mb = double(ru.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ledger.fail("batch pass exited with status " + std::to_string(status),
                static_cast<std::int64_t>(ids.size()));
    return pass;
  }
  if (headers.size() != ids.size()) {
    ledger.fail("batch pass printed " + std::to_string(headers.size()) +
                " experiment headers, expected " + std::to_string(ids.size()));
    return pass;
  }
  for (std::size_t i = 0; i < ids.size(); ++i)
    pass.experiment_s.push_back(
        (i + 1 < headers.size() ? headers[i + 1] : t_output_end) - headers[i]);

  const std::string pass_name = fs::path(out_dir).filename().string();
  const std::uint64_t pass_span = spans.reserve();
  spans.add("batch.setup", pass_name, t0, t0 + pass.first_byte_s, pass_span);
  for (std::size_t i = 0; i < ids.size(); ++i)
    spans.add("batch.experiment", ids[i], headers[i],
              headers[i] + pass.experiment_s[i], pass_span);
  spans.add(warm ? "batch.warm_pass" : "batch.cold_pass", pass_name, t0, t1, 0,
            pass_span);

  pass.hits = witness_field(witness, "hits=");
  pass.misses = witness_field(witness, "misses=");
  pass.writes = witness_field(witness, "writes=");
  const std::string kind = warm ? "warm" : "cold";
  const std::pair<const char*, std::int64_t> witness_counts[] = {
      {"hits", pass.hits}, {"misses", pass.misses}, {"writes", pass.writes}};
  if (!env.pinning) {
    for (const auto& [field, got] : witness_counts) {
      const auto want = env.pins.counts.find(kind + "." + field);
      if (want == env.pins.counts.end() || want->second != got)
        ledger.fail(kind + " pass store witness " + field + "=" +
                    std::to_string(got) + " differs from the pin");
    }
  }

  // Every CSV the pass wrote, against the pins.
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    std::string content;
    if (entry.path().extension() == ".csv" &&
        read_file(entry.path().string(), content))
      pass.csv_sha256[entry.path().filename().string()] = sha256_hex(content);
  }
  if (!env.pinning) {
    for (const auto& [name, want] : env.pins.csv_sha256) {
      const auto got = pass.csv_sha256.find(name);
      if (got == pass.csv_sha256.end() || got->second != want)
        ledger.mismatch(name);
    }
    if (pass.csv_sha256.size() != env.pins.csv_sha256.size())
      ledger.fail("pass wrote " + std::to_string(pass.csv_sha256.size()) +
                  " CSVs, pinned " + std::to_string(env.pins.csv_sha256.size()));
  }
  return pass;
}

std::vector<double> batch_setup_probes(const Env& env, const std::string& store,
                                       int n, Ledger& ledger) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const std::string dir = env.work + "/setup-" + std::to_string(i);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    std::vector<std::string> argv = {env.exe, "run", "--all", "--jobs=4",
                                     "--out-dir=" + dir};
    argv.push_back(store.empty() ? "--store=" + dir + "/.store"
                                 : "--store=" + store);
    Child child;
    const double t0 = now_s();
    child.spawn(argv, true, dir + ".stderr");
    bool ready = false;
    while (!ready && now_s() < t0 + 30.0) {
      pollfd p{child.out_fd(), POLLIN, 0};
      if (::poll(&p, 1, 100) > 0) {
        char c;
        ready = ::read(child.out_fd(), &c, 1) == 1;
        if (!ready) break;
      }
    }
    const double t1 = now_s();
    child.kill_and_reap();
    if (!ready) {
      ledger.fail("batch launch never printed");
      continue;
    }
    out.push_back(t1 - t0);
    fs::remove_all(dir, ec);
  }
  return out;
}

std::string warm_store_copy(const Env& env, const std::string& dest,
                            Ledger& ledger, SpanRecorder& spans) {
  std::string exe_bytes;
  if (!read_file(env.exe, exe_bytes))
    throw std::runtime_error("cannot read " + env.exe);
  const std::string primed =
      env.cache + "/primed-" + sha256_hex(exe_bytes).substr(0, 16);
  std::error_code ec;
  if (!fs::exists(primed + "/store")) {
    // One untimed cold pass; cached only when it checks out.
    const double t0 = now_s();
    const std::string tmp = primed + ".tmp";
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp);
    Ledger prime;
    SpanRecorder quiet(false);
    run_batch_pass(env, tmp + "/out", tmp + "/store", false, prime, quiet);
    if (!prime.correct()) {
      for (const std::string& p : prime.problems) ledger.fail("priming: " + p);
      throw std::runtime_error("priming the warm store failed");
    }
    fs::remove_all(tmp + "/out", ec);
    fs::remove_all(primed, ec);
    fs::rename(tmp, primed);
    spans.add("warm.prime", "primed store", t0, now_s());
  }
  const double t0 = now_s();
  fs::remove_all(dest, ec);
  fs::copy(primed + "/store", dest, fs::copy_options::recursive);
  spans.add("warm.copy", "primed store", t0, now_s());
  return dest;
}

// ---------------------------------------------------------------- serve

namespace {

constexpr const char* kSchedulers = "AFS,GSS";
constexpr const char* kProcs = "2,4,8";
constexpr int kCellsPerGrid = 6;  // 2 schedulers x 3 processor counts

std::string grid_line(const afs::GridSpec& g) {
  std::string line = "{\"verb\":\"grid\",\"kernel\":" + json_quote(g.kernel) +
                     ",\"machine\":" + json_quote(g.machine) +
                     ",\"schedulers\":" + json_quote(g.schedulers) +
                     ",\"procs\":" + json_quote(kProcs);
  if (!g.perturb.empty()) line += ",\"perturb\":" + json_quote(g.perturb);
  return line + "}";
}

afs::GridSpec grid_spec(std::string kernel, std::string machine,
                        std::string perturb = {}) {
  afs::GridSpec g;
  g.kernel = std::move(kernel);
  g.machine = std::move(machine);
  g.schedulers = kSchedulers;
  g.perturb = std::move(perturb);
  g.procs = {2, 4, 8};
  return g;
}

std::string with_tag(const std::string& line, const std::string& tag) {
  return line.substr(0, line.size() - 1) + ",\"tag\":" + json_quote(tag) + "}";
}

/// A grid no earlier request of the sequence (and no pool recipe) can
/// share a cell with: every kernel carries a parameter outside the pool's
/// values, and the (kernel, machine, perturb) text is never repeated.
afs::GridSpec random_miss(afs::SplitMix64& rng, std::set<std::string>& seen) {
  static const char* const machines[] = {"iris", "butterfly1", "ksr1"};
  while (true) {
    std::string kernel;
    switch (uniform(rng, 0, 3)) {
      case 0:
        kernel = "gauss:" + std::to_string(uniform(rng, 192, 288)) + "," +
                 std::to_string(uniform(rng, 2, 9));
        break;
      case 1:
        kernel = "sor:" + std::to_string(uniform(rng, 192, 512)) + "," +
                 std::to_string(uniform(rng, 4, 8)) + "," +
                 std::to_string(uniform(rng, 2, 9));
        break;
      case 2:
        kernel = "tc-random:" + std::to_string(uniform(rng, 144, 176)) +
                 ",0.1," + std::to_string(uniform(rng, 1000, 1000000000));
        break;
      default:
        kernel = "triangular:" + std::to_string(uniform(rng, 4000, 400000));
        break;
    }
    std::string perturb;
    if (uniform(rng, 0, 2) == 0) {
      const std::int64_t interval = uniform(rng, 5000, 50000);
      perturb = "seed=" + std::to_string(uniform(rng, 1, 1000000)) +
                ",stall=" + std::to_string(interval) + "/" +
                std::to_string(interval / 40);
    }
    afs::GridSpec g = grid_spec(kernel, machines[uniform(rng, 0, 2)], perturb);
    if (seen.insert(grid_line(g)).second) return g;
  }
}

/// Sends `line` and reads responses until the terminal one. Fills the
/// accept time and returns the parsed terminal event (or a null value on
/// transport failure).
JsonValue exchange(afs::service::ServiceClient& client, const std::string& line,
                   double& t_accept, std::string& error) {
  JsonValue v;
  if (!client.send_line(line)) {
    error = "send failed";
    return v;
  }
  std::string resp;
  while (client.read_line(resp, 60.0)) {
    if (resp.rfind("{\"event\":\"log\"", 0) == 0) continue;
    if (!afs::service::parse_json(resp, v, error)) return JsonValue{};
    const JsonValue* ev = v.find("event");
    const std::string event = ev ? ev->string : "";
    if (event == "accepted") {
      t_accept = now_s();
      continue;
    }
    if (event == "done" || event == "error" || event == "health" ||
        event == "stats" || event == "shutting_down")
      return v;
    if (event == "cell_error") error = resp;
  }
  error = "connection closed before a terminal response";
  return JsonValue{};
}

/// Digest of every CSV a `done` event names, in order, and their total
/// line count.
std::string done_csv_digest(const JsonValue& done, std::int64_t& lines,
                            bool& ok) {
  std::string all;
  ok = true;
  if (const JsonValue* exps = done.find("experiments"))
    for (const JsonValue& e : exps->array)
      if (const JsonValue* csvs = e.find("csv"))
        for (const JsonValue& c : csvs->array) {
          std::string content;
          if (!read_file(c.string, content)) ok = false;
          all += content;
        }
  lines = std::count(all.begin(), all.end(), '\n');
  return sha256_hex(all);
}

double store_delta(const JsonValue& done, const char* field) {
  const JsonValue* s = done.find("store");
  const JsonValue* f = s ? s->find(field) : nullptr;
  return f ? f->number : -1.0;
}

bool done_ok(const JsonValue& v) {
  const JsonValue* ev = v.find("event");
  const JsonValue* ok = v.find("ok");
  return ev && ev->string == "done" && ok && ok->is_bool() && ok->boolean;
}

struct Daemon {
  Child child;
  std::string socket;
};

/// Launches a daemon and waits until `health` answers "serving". Returns
/// launch-to-ready seconds, or a negative value.
double launch_daemon(const Env& env, const std::string& dir, Daemon& d) {
  // Unix socket paths are limited to 107 bytes: name it relative to the
  // working directory, which the daemon shares with the benchmark.
  d.socket = fs::proximate(dir + "/s.sock").string();
  const std::vector<std::string> argv = {
      env.exe, "serve", "--socket=" + d.socket, "--jobs=2",
      "--out-dir=" + dir + "/out", "--store=" + dir + "/store", "--quiet"};
  const double t0 = now_s();
  d.child.spawn(argv, false, dir + "/daemon.log");
  while (now_s() < t0 + 30.0) {
    afs::service::ServiceClient c;
    std::string error;
    if (c.connect(d.socket, error)) {
      double unused = 0.0;
      const JsonValue h = exchange(c, R"({"verb":"health"})", unused, error);
      const JsonValue* status = h.find("status");
      if (status && status->string == "serving") return now_s() - t0;
    }
    if (d.child.exited()) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1.0;
}

bool shutdown_daemon(Daemon& d, rusage& ru) {
  afs::service::ServiceClient c;
  std::string error;
  double unused = 0.0;
  if (c.connect(d.socket, error))
    exchange(c, R"({"verb":"shutdown"})", unused, error);
  c.close();
  int status = 0;
  return d.child.wait(30.0, status, ru) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

const std::vector<std::string>& serve_pool() {
  static const std::vector<std::string> pool = [] {
    std::vector<std::string> p;
    for (const char* id : {"fig03", "fig07", "fig10", "tab3", "tab5"})
      p.push_back("{\"verb\":\"run\",\"ids\":[" + json_quote(id) + "]}");
    const char* const kernels[] = {"gauss:160",       "sor:160,4",
                                   "tc-random:112,0.1,3", "triangular:3000",
                                   "gauss:176",       "sor:176,3",
                                   "tc-random:120,0.1,5"};
    const char* const machines[] = {"iris", "butterfly1", "ksr1"};
    for (const char* k : kernels)
      for (const char* m : machines)
        if (p.size() < 24) p.push_back(grid_line(grid_spec(k, m)));
    return p;
  }();
  return pool;
}

std::vector<ServeRequest> make_request_sequence(std::uint64_t seed,
                                                std::size_t n) {
  afs::SplitMix64 rng(seed);
  std::set<std::string> seen;
  std::vector<ServeRequest> out;
  out.reserve(n);
  const auto& pool = serve_pool();
  for (std::size_t i = 0; i < n; ++i) {
    ServeRequest r;
    r.hit = uniform(rng, 0, 3) != 0;
    std::string line;
    if (r.hit) {
      r.pool_index = static_cast<int>(
          uniform(rng, 0, static_cast<std::int64_t>(pool.size()) - 1));
      line = pool[static_cast<std::size_t>(r.pool_index)];
    } else {
      r.grid = random_miss(rng, seen);
      line = grid_line(r.grid);
    }
    r.line = with_tag(line, "r" + std::to_string(i));
    out.push_back(std::move(r));
  }
  return out;
}

std::string request_sequence_digest(std::uint64_t seed, std::size_t n) {
  std::string all;
  for (const ServeRequest& r : make_request_sequence(seed, n))
    all += r.line + "\n";
  return sha256_hex(all);
}

ServeRun run_serve(const Env& env, const ServeOptions& opts,
                   std::uint64_t seed, Ledger& ledger, SpanRecorder& spans) {
  ServeRun run;
  const std::string base = env.work + "/serve";
  std::error_code ec;

  // Set-up time, several launches: each probe daemon is shut down once it
  // is ready; the last launch serves the traffic.
  Daemon daemon;
  for (int i = 0; i <= opts.setup_launches; ++i) {
    const std::string dir = base + (i < opts.setup_launches
                                        ? "/setup-" + std::to_string(i)
                                        : std::string("/run"));
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    Daemon probe;
    Daemon& d = i < opts.setup_launches ? probe : daemon;
    const double t0 = now_s();
    const double s = launch_daemon(env, dir, d);
    if (s < 0.0) {
      ledger.fail("daemon never became ready (" + dir + ")");
      return run;
    }
    spans.add("serve.setup", fs::path(dir).filename().string(), t0, t0 + s);
    run.setup_s.push_back(s);
    if (i < opts.setup_launches) {
      rusage ru{};
      if (!shutdown_daemon(probe, ru)) ledger.fail("probe daemon did not drain");
      fs::remove_all(dir, ec);
    }
  }
  run.store = base + "/run/store";

  // Prime the pool: each recipe once, its CSV the reference for its hits.
  const auto& pool = serve_pool();
  std::vector<std::string> reference(pool.size());
  {
    afs::service::ServiceClient c;
    std::string error;
    if (!c.connect(daemon.socket, error)) {
      ledger.fail("connect: " + error);
      return run;
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      double t_accept = 0.0;
      const double t0 = now_s();
      const JsonValue done =
          exchange(c, with_tag(pool[i], "prime" + std::to_string(i)), t_accept,
                   error);
      spans.add("serve.prime", pool[i], t0, now_s());
      std::int64_t lines = 0;
      bool read_ok = false;
      reference[i] = done_csv_digest(done, lines, read_ok);
      run.pool_sha256[pool[i]] = reference[i];
      if (!done_ok(done) || !read_ok) {
        ledger.fail("priming " + pool[i] + " failed: " + error);
        continue;
      }
      if (!env.pinning) {
        const auto pin = env.pins.pool_sha256.find(pool[i]);
        if (pin == env.pins.pool_sha256.end() || pin->second != reference[i])
          ledger.mismatch("pool recipe " + pool[i]);
      }
    }
  }

  // Closed-loop traffic: two connections, each sends its next request
  // only after the previous one is done.
  const std::vector<ServeRequest> seq =
      make_request_sequence(seed, opts.max_requests);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto client = [&] {
    afs::service::ServiceClient c;
    std::string error;
    Ledger local;
    std::vector<RequestSample> mine;
    if (!c.connect(daemon.socket, error)) {
      local.fail("connect: " + error);
    } else {
      ::fcntl(c.fd(), F_SETFD, FD_CLOEXEC);
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= seq.size() || now_s() >= run.traffic_start + opts.seconds)
          break;
        const ServeRequest& r = seq[i];
        ++local.attempted;
        RequestSample s;
        s.hit = r.hit;
        s.t_send = now_s();
        const JsonValue done = exchange(c, r.line, s.t_accept, error);
        s.t_done = now_s();
        if (!done_ok(done)) {
          local.fail("request r" + std::to_string(i) + " failed: " + error);
          if (!c.connected()) break;
          continue;
        }
        const JsonValue* el = done.find("elapsed_s");
        s.exec_s = el ? el->number : 0.0;
        std::int64_t lines = 0;
        bool read_ok = false;
        const std::string digest = done_csv_digest(done, lines, read_ok);
        if (r.hit) {
          if (!read_ok ||
              digest != reference[static_cast<std::size_t>(r.pool_index)])
            local.mismatch("hit r" + std::to_string(i));
          if (store_delta(done, "misses") != 0.0)
            local.fail("pool hit r" + std::to_string(i) + " missed the store");
        } else {
          if (!read_ok || lines != 1 + kCellsPerGrid)
            local.fail("miss r" + std::to_string(i) + " wrote " +
                       std::to_string(lines) + " CSV lines");
          if (store_delta(done, "misses") <= 0.0 ||
              store_delta(done, "writes") <= 0.0)
            local.fail("miss r" + std::to_string(i) + " was served warm");
        }
        const std::uint64_t id = spans.reserve();
        const double exec0 = s.t_done - s.exec_s;
        if (s.t_accept > 0.0) {
          spans.add("serve.accept", r.line, s.t_send, s.t_accept, id);
          spans.add("serve.queue", r.line, s.t_accept, std::max(s.t_accept, exec0),
                    id);
        }
        spans.add("serve.exec", r.line, exec0, s.t_done, id);
        spans.add(r.hit ? "serve.hit" : "serve.miss", r.line, s.t_send, s.t_done,
                  0, id);
        mine.push_back(s);
      }
    }
    std::scoped_lock lock(mu);
    ledger.merge(local);
    run.completed.insert(run.completed.end(), mine.begin(), mine.end());
  };
  settle_disk(base);
  run.traffic_start = now_s();
  {
    std::thread a(client), b(client);
    a.join();
    b.join();
  }
  run.traffic_end = now_s();
  std::sort(run.completed.begin(), run.completed.end(),
            [](const RequestSample& x, const RequestSample& y) {
              return x.t_done < y.t_done;
            });

  {
    afs::service::ServiceClient c;
    std::string error;
    double unused = 0.0;
    if (c.connect(daemon.socket, error))
      run.stats = exchange(c, R"({"verb":"stats"})", unused, error);
    if (!run.stats.find("admitted")) ledger.fail("stats verb failed: " + error);
  }
  rusage ru{};
  if (!shutdown_daemon(daemon, ru)) ledger.fail("daemon did not drain cleanly");
  run.rss_mb = double(ru.ru_maxrss) / 1024.0;
  return run;
}

}  // namespace perf
