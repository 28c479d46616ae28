#include "workload.h"

#include <algorithm>
#include <numeric>

namespace serverbench {

namespace {

constexpr const char* kQ1 = "q() :- Stud(x), not TA(x), Reg(x,y)";
constexpr const char* kQ2 =
    "q() :- Stud(x), not TA(x), Reg(x,y), not Course(y,'CS')";

// Three polls per round, so that poll_p98_us has more than ten samples
// beyond it on the workload with the fewest rounds (exact_readmit: 1 440
// polls, 28 beyond p98; one poll per round would leave 9).
constexpr size_t kPollsPerRound = 3;
// A full table every fourth round.
constexpr size_t kFullEvery = 4;
// Per-orbit sample cap of every approx report; it sets the report cost.
constexpr size_t kApproxMaxSamples = 48;

// Why each workload exists is in README.md. An exact session has 206
// endogenous facts (56 students: 166 registrations, 25 TAs, 15 endogenous
// Stud facts), an approx session 24 (10 students: 15 registrations, 4 TAs,
// 2 endogenous Stud facts, 3 endogenous Course facts). The timed rounds
// take about 14 s on a 4-vCPU x86-64 virtual machine.
constexpr Workload kWorkloads[] = {
    {"exact_delta", kQ1, /*approx=*/false, /*sessions=*/8, /*students=*/56,
     /*degrees=*/5, /*context_students=*/0, /*courses=*/12, /*cycle=*/false,
     /*stripes=*/0, /*max_resident=*/0, /*rounds=*/700},
    {"exact_readmit", kQ1, false, 12, 56, 5, /*context_students=*/200, 12,
     /*cycle=*/true, /*stripes=*/1, /*max_resident=*/4, /*rounds=*/480},
    {"approx_sampling", kQ2, /*approx=*/true, 24, 10, /*degrees=*/2, 0, 6,
     false, 0, 0, /*rounds=*/2500},
};

std::string Course(size_t index) { return "c" + std::to_string(index); }

}  // namespace

bool IsReport(Kind kind) {
  return kind == Kind::kFirstReport || kind == Kind::kReport ||
         kind == Kind::kFull || kind == Kind::kPoll || kind == Kind::kFetch;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::vector<std::string> ServerArgs(const Workload& workload) {
  std::vector<std::string> args;
  if (workload.stripes > 0) {
    args.push_back("--stripes");
    args.push_back(std::to_string(workload.stripes));
  }
  if (workload.max_resident > 0) {
    args.push_back("--max-resident");
    args.push_back(std::to_string(workload.max_resident));
  }
  return args;
}

Stream::Stream(const Workload& workload, uint64_t seed)
    : workload_(workload), state_(seed) {
  session_seed_ = Next() % 1000000007;
  sessions_.resize(workload.sessions);
}

// splitmix64: inputs must not depend on the library under test.
uint64_t Stream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t Stream::Uniform(size_t bound) { return Next() % bound; }

std::string Stream::SessionId(uint32_t session) const {
  return "s" + std::to_string(session);
}

std::string Stream::ReportLine(uint32_t session, bool top_k) const {
  std::string line = "REPORT " + SessionId(session);
  if (top_k) line += " top_k=10";
  if (workload_.approx) {
    line += " approx=0.1,0.05 seed=" + std::to_string(session_seed_ + session) +
            " max_samples=" + std::to_string(kApproxMaxSamples);
  }
  return line;
}

void Stream::Emit(Kind kind, uint32_t session, const std::string& line,
                  bool timed) {
  commands_.push_back(Command{kind, session, line, timed});
}

void Stream::Delta(Kind kind, uint32_t session, char op,
                   const std::string& fact, bool timed) {
  Emit(kind, session,
       "DELTA " + SessionId(session) + " " + std::string(1, op) + " " + fact,
       timed);
}

void Stream::AppendSetup() {
  const size_t n = workload_.students;
  for (uint32_t s = 0; s < workload_.sessions; ++s) {
    const std::string id = SessionId(s);
    std::vector<Student>& students = sessions_[s];
    Emit(Kind::kOpen, s, "OPEN " + id + " " + workload_.query);

    // The same mix of student types in every session and for every seed:
    // registrations cycle through 1..degrees, and within each degree 2 of
    // every 5 students are TAs and 1 of every 4 has an endogenous Stud fact.
    // The seed picks names, courses and which students the rounds touch.
    std::vector<size_t> names(n);
    std::iota(names.begin(), names.end(), 0);
    for (size_t i = n; i > 1; --i) std::swap(names[i - 1], names[Uniform(i)]);
    students.resize(n);
    for (size_t i = 0; i < n; ++i) {
      Student& student = students[i];
      const size_t rank = i / workload_.degrees;
      student.name = "u" + std::to_string(names[i]);
      student.ta = rank % 5 == 0 || rank % 5 == 2;
      student.endo_stud = rank % 4 == 1;
      Delta(Kind::kLoad, s, '+',
            "Stud(" + student.name + ")" + (student.endo_stud ? "*" : ""));
      if (student.ta) Delta(Kind::kLoad, s, '+', "TA(" + student.name + ")*");
      // A pool of degree + 1 distinct courses: the registrations and one
      // spare the swaps rotate through.
      while (student.regs.size() <= 1 + i % workload_.degrees) {
        const std::string course = Course(Uniform(workload_.courses));
        if (std::find(student.regs.begin(), student.regs.end(), course) ==
            student.regs.end()) {
          student.regs.push_back(course);
        }
      }
      student.spare = student.regs.back();
      student.regs.pop_back();
      for (const std::string& course : student.regs) {
        Delta(Kind::kLoad, s, '+',
              "Reg(" + student.name + "," + course + ")*");
      }
    }
    // Exogenous context: students who are exogenous TAs, so they never
    // satisfy the query but still enter the engine's index.
    for (size_t i = 0; i < workload_.context_students; ++i) {
      const std::string name = "x" + std::to_string(i);
      Delta(Kind::kLoad, s, '+', "Stud(" + name + ")");
      Delta(Kind::kLoad, s, '+', "TA(" + name + ")");
      for (size_t r = 0; r <= i % workload_.degrees; ++r) {
        Delta(Kind::kLoad, s, '+',
              "Reg(" + name + "," + Course((i + r) % workload_.courses) + ")");
      }
    }
    if (workload_.approx) {
      // Half the courses are CS, an independent half are players.
      std::vector<size_t> courses(workload_.courses);
      std::iota(courses.begin(), courses.end(), 0);
      std::vector<bool> cs(courses.size(), false), endo(courses.size(), false);
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = courses.size(); i > 1; --i) {
          std::swap(courses[i - 1], courses[Uniform(i)]);
        }
        for (size_t i = 0; i < courses.size() / 2; ++i) {
          (pass == 0 ? cs : endo)[courses[i]] = true;
        }
      }
      for (size_t c = 0; c < courses.size(); ++c) {
        Delta(Kind::kLoad, s, '+',
              "Course(" + Course(c) + "," + (cs[c] ? "CS" : "EE") + ")" +
                  (endo[c] ? "*" : ""));
      }
    }
    Emit(Kind::kFirstReport, s, ReportLine(s, true));
    // A resident engine keeps an (empty) node for every fact it has seen.
    // Insert and delete each fact the rounds can insert, after the first
    // build, so the engine already has its steady-state shape when the
    // timed phase starts.
    for (const Student& student : students) {
      const std::string reg =
          "Reg(" + student.name + "," + student.spare + ")*";
      Delta(Kind::kLoad, s, '+', reg);
      Delta(Kind::kLoad, s, '-', reg);
      if (!student.ta) {
        Delta(Kind::kLoad, s, '+', "TA(" + student.name + ")*");
        Delta(Kind::kLoad, s, '-', "TA(" + student.name + ")*");
      }
    }
  }
}

void Stream::AppendRound(bool timed) {
  const uint32_t s = static_cast<uint32_t>(
      workload_.cycle ? rounds_ % workload_.sessions
                      : Uniform(workload_.sessions));
  std::vector<Student>& students = sessions_[s];

  // Registration swap: the student drops one course for its spare.
  Student& student = students[Uniform(students.size())];
  std::string& dropped = student.regs[Uniform(student.regs.size())];
  Delta(Kind::kDelta, s, '-', "Reg(" + student.name + "," + dropped + ")*",
        timed);
  Delta(Kind::kDelta, s, '+',
        "Reg(" + student.name + "," + student.spare + ")*", timed);
  std::swap(dropped, student.spare);

  // TA swap within one student type (degree and Stud kind), so each
  // type's TA count, and with it the orbit structure, stays fixed. Every
  // type that has a TA also has a non-TA (see the mix in AppendSetup).
  std::vector<Student*> tas, partners;
  for (Student& candidate : students) {
    if (candidate.ta) tas.push_back(&candidate);
  }
  Student& ta = *tas[Uniform(tas.size())];
  for (Student& candidate : students) {
    if (!candidate.ta && candidate.endo_stud == ta.endo_stud &&
        candidate.regs.size() == ta.regs.size()) {
      partners.push_back(&candidate);
    }
  }
  Student& non_ta = *partners[Uniform(partners.size())];
  Delta(Kind::kDelta, s, '-', "TA(" + ta.name + ")*", timed);
  Delta(Kind::kDelta, s, '+', "TA(" + non_ta.name + ")*", timed);
  ta.ta = false;
  non_ta.ta = true;

  Emit(Kind::kReport, s, ReportLine(s, true), timed);
  if (rounds_ % kFullEvery == kFullEvery - 1) {
    Emit(Kind::kFull, s, ReportLine(s, false), timed);
  }
  for (size_t i = 0; i < kPollsPerRound; ++i) {
    Emit(Kind::kPoll, s, ReportLine(s, true), timed);
  }
  ++rounds_;
}

void Stream::AppendFetch() {
  for (uint32_t s = 0; s < workload_.sessions; ++s) {
    Emit(Kind::kFetch, s, ReportLine(s, false));
  }
}

}  // namespace serverbench
