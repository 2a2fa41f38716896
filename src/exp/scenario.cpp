#include "exp/scenario.hpp"

#include "exp/artifact.hpp"

#include "sim/lex.hpp"
#include "sim/random.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::exp {

const char* to_string(RunMode m) {
  return m == RunMode::kRun ? "run" : "adapt";
}

std::string ScenarioPoint::label() const {
  std::string s = workload;
  s += " h" + std::to_string(hosts);
  s += " v" + std::to_string(vms);
  s += " " + std::to_string(mb) + "MB";
  s += " (" + std::string(1, iosched::to_letter(pair.vmm)) + "," +
       std::string(1, iosched::to_letter(pair.guest)) + ")";
  if (!fault_text.empty()) s += " fault=" + fault_text;
  if (!stream_text.empty()) s += " stream=" + stream_text;
  if (!stream_policy.empty()) s += " policy=" + stream_policy;
  if (!meta_text.empty()) s += " meta=" + meta_text;
  return s;
}

bool ScenarioSpec::apply(std::string_view key, std::string_view value,
                         std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  key = lex::trim(key);
  value = lex::trim(value);
  const std::string k(key);
  const auto bad = [&](const std::string& what, const char* hint = "") {
    return fail("bad " + what + " '" + std::string(value) + "'" + hint);
  };
  if (value.empty()) return fail("empty value for '" + k + "'");

  // Every list-valued key splits the same way; the diagnostic names the key.
  std::vector<std::string_view> items;
  const auto split_items = [&](char sep) {
    auto parts = lex::list(value, sep);
    if (!parts) return fail("empty list element in " + k);
    items = std::move(*parts);
    return true;
  };

  if (key == "name") {
    name = std::string(value);
    return true;
  }
  if (key == "mode") {
    if (value == "run") {
      mode = RunMode::kRun;
    } else if (value == "adapt") {
      mode = RunMode::kAdapt;
    } else {
      return bad("mode", " (run|adapt)");
    }
    return true;
  }
  if (key == "base_seed" || key == "max_events") {
    if (!lex::parse_int(value, key == "base_seed" ? &base_seed : &max_events)) {
      return bad(k);
    }
    return true;
  }
  if (key == "seed_mode") {
    if (value == "run") {
      paired_seeds = false;
    } else if (value == "repeat") {
      paired_seeds = true;
    } else {
      return bad("seed_mode", " (run|repeat)");
    }
    return true;
  }
  if (key == "repeats") {
    int r;
    if (!lex::parse_int(value, &r) || r < 1 || r > 10'000) {
      return bad("repeats", " (1..10000)");
    }
    repeats = r;
    return true;
  }
  if (key == "pair") {
    if (value == "all16" || value == "all") {
      const auto all = iosched::all_scheduler_pairs();
      pairs.assign(all.begin(), all.end());
      return true;
    }
    if (!split_items(',')) return false;
    pairs.clear();
    for (const auto it : items) {
      const auto p = iosched::SchedulerPair::from_letters(it);
      if (!p) {
        return fail("bad pair '" + std::string(it) + "' (two of n/d/a/c, or all16)");
      }
      pairs.push_back(*p);
    }
    return true;
  }
  if (key == "workload") {
    if (!split_items(',')) return false;
    std::vector<std::string> named;
    for (const auto it : items) {
      const auto model = workloads::by_name(it);
      if (!model) return fail("unknown workload '" + std::string(it) + "'");
      named.push_back(model->name);  // canonical: "wc" and "wordcount" collide
    }
    workloads = std::move(named);
    return true;
  }
  if (key == "hosts" || key == "vms") {
    if (!split_items(',')) return false;
    std::vector<int> xs;
    for (const auto it : items) {
      int x;
      if (!lex::parse_int(it, &x) || x < 1 || x > 1024) {
        return fail("bad " + k + " value '" + std::string(it) + "'");
      }
      xs.push_back(x);
    }
    (key == "hosts" ? hosts : vms) = xs;
    return true;
  }
  if (key == "mb") {
    if (!split_items(',')) return false;
    mb.clear();
    for (const auto it : items) {
      std::int64_t x;
      if (!lex::parse_int(it, &x) || x < 1 || x > (std::int64_t{1} << 30)) {
        return fail("bad mb value '" + std::string(it) + "'");
      }
      mb.push_back(x);
    }
    return true;
  }
  if (key == "timeout" || key == "max_sim_seconds") {
    // Non-negative seconds; 0 disables the knob.
    double s;
    if (!lex::parse_double(value, &s) || s < 0.0 || s > 1e9) {
      return bad(k, " (seconds, >= 0)");
    }
    (key == "timeout" ? timeout_seconds : max_sim_seconds) = s;
    return true;
  }
  if (key == "fault") {
    // Alternatives are `|`-separated because the fault-plan grammar itself
    // uses `,` and `;`.
    if (!split_items('|')) return false;
    faults.clear();
    for (const auto it : items) {
      const std::string text(it);
      if (text == "none") {
        faults.push_back({{}, ""});
        continue;
      }
      std::string ferr;
      auto plan = fault::FaultPlan::parse(text, &ferr);
      if (!plan) return fail("bad fault '" + text + "': " + ferr);
      faults.push_back({*plan, text});
    }
    return true;
  }
  if (key == "stream") {
    // `|`-separated like fault, because the stream grammar uses `,`/`;`.
    if (!split_items('|')) return false;
    streams.clear();
    for (const auto it : items) {
      const std::string text(it);
      if (text == "none") {
        streams.push_back({{}, ""});
        continue;
      }
      std::string serr;
      auto st = tenancy::StreamSpec::parse(text, &serr);
      if (!st) return fail("bad stream '" + text + "': " + serr);
      streams.push_back({*st, text});
    }
    return true;
  }
  if (key == "stream_policy") {
    if (!split_items(',')) return false;
    stream_policies.clear();
    for (const auto it : items) {
      if (!tenancy::policy_by_name(it)) {
        return fail("bad stream_policy '" + std::string(it) + "' (fifo|fair|capacity)");
      }
      stream_policies.emplace_back(it);
    }
    return true;
  }
  if (key == "meta") {
    // `|`-separated meta-segment bodies (the segment grammar uses `,`).
    // Per-body validation happens in validate(), where the stream axis the
    // body folds into is known.
    if (!split_items('|')) return false;
    metas.clear();
    for (const auto it : items) {
      if (it == "none") {
        metas.emplace_back();
        continue;
      }
      if (it.substr(0, 7) != "policy=") {
        return fail("bad meta '" + std::string(it) +
                    "' (expected none or a meta segment body starting with "
                    "policy=)");
      }
      metas.emplace_back(it);
    }
    return true;
  }
  return fail("unknown key '" + k + "'");
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view text,
                                                std::string* error) {
  ScenarioSpec spec;
  std::vector<std::string> seen;
  int line_no = 0;
  for (std::string_view line : lex::split(text, '\n')) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = lex::trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": expected key=value, got '" +
                 std::string(line) + "'";
      }
      return std::nullopt;
    }
    const std::string key(lex::trim(line.substr(0, eq)));
    for (const auto& s : seen) {
      if (s == key) {
        if (error) {
          *error = "line " + std::to_string(line_no) + ": duplicate key '" + key + "'";
        }
        return std::nullopt;
      }
    }
    std::string err;
    if (!spec.apply(key, line.substr(eq + 1), &err)) {
      if (error) *error = "line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    seen.push_back(key);
  }
  {
    std::string err;
    if (!spec.validate(&err)) {
      if (error) *error = err;
      return std::nullopt;
    }
  }
  return spec;
}

bool ScenarioSpec::validate(std::string* error) const {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  // Overflow-safe product: bail as soon as the running product can no
  // longer stay under the cap (axis sizes are never 0 — lex::list rejects
  // empty elements and the defaults are non-empty).
  const bool any_stream = [&] {
    for (const auto& st : streams) {
      if (!st.second.empty()) return true;
    }
    return false;
  }();
  if (any_stream && mode == RunMode::kAdapt) {
    return fail("stream= requires mode=run (the meta-scheduler pipeline is "
                "single-job)");
  }
  if (!any_stream && !(stream_policies.size() == 1 && stream_policies[0].empty())) {
    return fail("stream_policy= without a stream= axis");
  }
  const bool any_meta = [&] {
    for (const auto& m : metas) {
      if (!m.empty()) return true;
    }
    return false;
  }();
  if (!any_stream && any_meta) {
    return fail("meta= without a stream= axis");
  }
  // Every (stream, meta) fold must parse: the body is appended to the
  // stream text as a `;meta,...` segment, so the stream parser validates it
  // in context (policy names, pair codes, profile class references).
  for (const auto& m : metas) {
    if (m.empty()) continue;
    for (const auto& st : streams) {
      if (st.second.empty()) continue;
      std::string serr;
      if (!tenancy::StreamSpec::parse(st.second + ";meta," + m, &serr)) {
        return fail("bad meta '" + m + "' for stream '" + st.second +
                    "': " + serr);
      }
    }
  }
  std::size_t points = 1;
  for (const std::size_t n : {workloads.size(), hosts.size(), vms.size(), mb.size(),
                              pairs.size(), faults.size(), streams.size(),
                              stream_policies.size(), metas.size()}) {
    if (n == 0) return fail("empty axis");
    if (points > kMaxPoints / n) {
      return fail("scenario cross product exceeds " + std::to_string(kMaxPoints) +
                  " points");
    }
    points *= n;
  }
  if (points > kMaxRuns / static_cast<std::size_t>(repeats)) {
    return fail("scenario matrix exceeds " + std::to_string(kMaxRuns) +
                " runs (points x repeats)");
  }
  return true;
}

std::vector<ScenarioPoint> ScenarioSpec::expand() const {
  std::vector<ScenarioPoint> out;
  out.reserve(n_points());
  for (const auto& w : workloads) {
    for (int h : hosts) {
      for (int v : vms) {
        for (std::int64_t m : mb) {
          for (const auto& p : pairs) {
            for (const auto& f : faults) {
              for (const auto& st : streams) {
                for (const auto& pol : stream_policies) {
                  for (const auto& mt : metas) {
                    ScenarioPoint pt;
                    pt.mode = mode;
                    pt.pair = p;
                    pt.workload = w;
                    pt.hosts = h;
                    pt.vms = v;
                    pt.mb = m;
                    pt.faults = f.first;
                    pt.fault_text = f.second;
                    pt.stream = st.first;
                    pt.stream_text = st.second;
                    if (!st.second.empty() && !mt.empty()) {
                      // Re-parse the fold (validate() proved it parses) so
                      // the meta segment lands with full context checks.
                      pt.stream =
                          *tenancy::StreamSpec::parse(st.second + ";meta," + mt);
                      pt.meta_text = mt;
                    }
                    if (!st.second.empty() && !pol.empty()) {
                      pt.stream_policy = pol;
                      pt.stream.policy = *tenancy::policy_by_name(pol);
                    }
                    pt.max_events = max_events;
                    pt.max_sim_seconds = max_sim_seconds;
                    out.push_back(std::move(pt));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::string ScenarioSpec::to_string() const {
  std::string s;
  s += "name=" + name + "\n";
  s += "mode=" + std::string(exp::to_string(mode)) + "\n";
  s += "base_seed=" + std::to_string(base_seed) + "\n";
  s += "repeats=" + std::to_string(repeats) + "\n";
  // Rendered only when non-default: pre-existing specs keep their
  // fingerprint (and resumability) bit for bit.
  if (paired_seeds) s += "seed_mode=repeat\n";
  s += "pair=";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i) s += ",";
    s += pairs[i].letters();
  }
  s += "\nworkload=";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (i) s += ",";
    s += workloads[i];
  }
  s += "\nhosts=";
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(hosts[i]);
  }
  s += "\nvms=";
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(vms[i]);
  }
  s += "\nmb=";
  for (std::size_t i = 0; i < mb.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(mb[i]);
  }
  s += "\nfault=";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i) s += "|";
    s += faults[i].second.empty() ? "none" : faults[i].second;
  }
  s += "\n";
  // Stream axes render only when set, so pre-tenancy specs keep their
  // canonical text — and therefore their journal fingerprints — unchanged.
  if (!(streams.size() == 1 && streams[0].second.empty())) {
    s += "stream=";
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (i) s += "|";
      s += streams[i].second.empty() ? "none" : streams[i].second;
    }
    s += "\n";
  }
  if (!(stream_policies.size() == 1 && stream_policies[0].empty())) {
    s += "stream_policy=";
    for (std::size_t i = 0; i < stream_policies.size(); ++i) {
      if (i) s += ",";
      s += stream_policies[i];
    }
    s += "\n";
  }
  if (!(metas.size() == 1 && metas[0].empty())) {
    s += "meta=";
    for (std::size_t i = 0; i < metas.size(); ++i) {
      if (i) s += "|";
      s += metas[i].empty() ? "none" : metas[i];
    }
    s += "\n";
  }
  s += "max_events=" + std::to_string(max_events) + "\n";
  s += "max_sim_seconds=" + lex::format_double(max_sim_seconds) + "\n";
  s += "timeout=" + lex::format_double(timeout_seconds) + "\n";
  return s;
}

std::uint64_t ScenarioSpec::fingerprint() const {
  // Canonical text minus the wall-clock-only trailing line. to_string()
  // deliberately renders `timeout=` last so the result-determining prefix
  // is a clean cut.
  std::string s = to_string();
  const auto pos = s.rfind("timeout=");
  if (pos != std::string::npos) s.resize(pos);
  return fnv1a64(s);
}

std::vector<RunTask> build_run_matrix(const ScenarioSpec& spec) {
  std::vector<RunTask> tasks;
  tasks.reserve(spec.n_runs());
  const std::size_t points = spec.n_points();
  for (std::size_t p = 0; p < points; ++p) {
    for (int r = 0; r < spec.repeats; ++r) {
      RunTask t;
      t.point_index = p;
      t.repeat = r;
      t.run_index = p * static_cast<std::size_t>(spec.repeats) +
                    static_cast<std::size_t>(r);
      t.seed = sim::derive_run_seed(
          spec.base_seed,
          spec.paired_seeds ? static_cast<std::size_t>(r) : t.run_index);
      tasks.push_back(t);
    }
  }
  return tasks;
}

}  // namespace iosim::exp
