// Cooperative cancellation primitives (util/cancel.h): monotonic
// deadlines, token tripping and reason precedence, the parent/child
// observation hierarchy, the deterministic poll-count test hook, the
// thread-local cancellation scope, and the SIGINT/SIGTERM bridge.
#include "util/cancel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <limits>

#include "util/error.h"

namespace raidrel::util {
namespace {

TEST(Deadline, NeverIsUnarmedAndNeverExpires) {
  const Deadline d = Deadline::never();
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
  EXPECT_GT(d.remaining_seconds(), 0.0);
  // Default construction is the same never-expiring deadline.
  EXPECT_FALSE(Deadline().armed());
}

TEST(Deadline, AfterSecondsArmsAndExpiresOnTheMonotonicClock) {
  const Deadline past = Deadline::after_seconds(0.0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_seconds(), 0.0);

  const Deadline future = Deadline::after_seconds(3600.0);
  EXPECT_TRUE(future.armed());
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 3590.0);
  EXPECT_LE(future.remaining_seconds(), 3600.0);
  EXPECT_TRUE(Deadline::at(future.when()).expired() == false);
}

// A duration past the steady clock's range used to overflow the tick
// conversion into a deadline already in the past, so
// `--wall-deadline 1e30` interrupted a sweep before its first cell.
TEST(Deadline, AfterSecondsBeyondTheClockRangeNeverExpires) {
  for (const double seconds :
       {1e30, std::numeric_limits<double>::infinity()}) {
    const Deadline d = Deadline::after_seconds(seconds);
    EXPECT_FALSE(d.expired()) << seconds;
    EXPECT_GT(d.remaining_seconds(), 0.0) << seconds;
  }
}

TEST(CancelReasonNames, CoverEveryReason) {
  EXPECT_STREQ(to_string(CancelReason::kNone), "none");
  EXPECT_STREQ(to_string(CancelReason::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(CancelReason::kDeadline), "deadline");
}

TEST(CancelToken, StartsCleanAndCountsPolls) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.polls(), 0u);
  EXPECT_NO_THROW(token.poll());
  EXPECT_EQ(token.poll_quiet(), CancelReason::kNone);
  EXPECT_EQ(token.polls(), 2u);
  EXPECT_LT(token.seconds_since_cancel(), 0.0);
  EXPECT_FALSE(token.deadline().armed());
}

TEST(CancelToken, RequestCancelTripsAndTheFirstReasonWins) {
  CancelToken token;
  token.request_cancel(CancelReason::kNone);  // a no-op, not a trip
  EXPECT_FALSE(token.cancelled());
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  token.request_cancel(CancelReason::kDeadline);  // too late: first wins
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  EXPECT_GE(token.seconds_since_cancel(), 0.0);

  try {
    token.poll();
    FAIL() << "poll() on a cancelled token did not throw";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
    // Site-keyed handlers classify it like any other SiteError.
    const SiteError& as_site = e;
    EXPECT_EQ(as_site.site(), "cancelled");
  }
  // poll_quiet never throws, even cancelled — that is the drain side.
  EXPECT_EQ(token.poll_quiet(), CancelReason::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineReadsAsDeadlineReason) {
  const CancelToken token{Deadline::after_seconds(0.0)};
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(token.deadline().armed());
  EXPECT_GE(token.seconds_since_cancel(), 0.0);
  try {
    token.poll();
    FAIL() << "poll() past the deadline did not throw";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
    EXPECT_EQ(e.site(), "deadline");
  }
}

TEST(CancelToken, CopiesShareOneState) {
  CancelToken a;
  CancelToken b = a;
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_EQ(a.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, ChildObservesAncestorsButNeverPropagatesUp) {
  CancelToken sweep;
  CancelToken cell = sweep.child();
  CancelToken nested = cell.child();
  EXPECT_FALSE(cell.cancelled());

  // A stalled cell's own cancel must not stop the sweep.
  cell.request_cancel(CancelReason::kDeadline);
  EXPECT_EQ(cell.reason(), CancelReason::kDeadline);
  EXPECT_EQ(nested.reason(), CancelReason::kDeadline);
  EXPECT_FALSE(sweep.cancelled());

  // A sweep-level cancel reaches every descendant, even through a parent
  // that has not itself been tripped.
  CancelToken fresh = sweep.child().child();
  sweep.request_cancel();
  EXPECT_EQ(fresh.reason(), CancelReason::kCancelled);
  // The cell already had its own (earlier, nearer) reason; it wins.
  EXPECT_EQ(cell.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, ChildDeadlineBoundsTheChildOnly) {
  const CancelToken sweep;
  const CancelToken cell = sweep.child(Deadline::after_seconds(0.0));
  EXPECT_EQ(cell.reason(), CancelReason::kDeadline);
  EXPECT_FALSE(sweep.cancelled());
}

TEST(CancelToken, PollsCountPerTokenStateNotPerHierarchy) {
  const CancelToken parent;
  const CancelToken child = parent.child();
  child.poll_quiet();
  child.poll_quiet();
  EXPECT_EQ(child.polls(), 2u);
  EXPECT_EQ(parent.polls(), 0u);
}

TEST(CancelToken, CancelAfterPollsTripsOnExactlyTheNthPoll) {
  CancelToken token;
  token.cancel_after_polls(3);
  EXPECT_EQ(token.poll_quiet(), CancelReason::kNone);
  EXPECT_EQ(token.poll_quiet(), CancelReason::kNone);
  EXPECT_EQ(token.poll_quiet(), CancelReason::kCancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  EXPECT_EQ(token.polls(), 3u);

  // 0 disables the hook entirely.
  CancelToken off;
  off.cancel_after_polls(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(off.poll_quiet(), CancelReason::kNone);
  }
}

TEST(CancelScope, InstallsAndRestoresTheThreadLocalToken) {
  EXPECT_EQ(current_cancel_token(), nullptr);
  CancelToken outer_token;
  {
    const CancelScope outer(&outer_token);
    EXPECT_EQ(current_cancel_token(), &outer_token);
    CancelToken inner_token;
    {
      const CancelScope inner(&inner_token);
      EXPECT_EQ(current_cancel_token(), &inner_token);
      {
        // A null scope clears the slot — a token must not leak into work
        // that cannot honor it.
        const CancelScope cleared(nullptr);
        EXPECT_EQ(current_cancel_token(), nullptr);
      }
      EXPECT_EQ(current_cancel_token(), &inner_token);
    }
    EXPECT_EQ(current_cancel_token(), &outer_token);
  }
  EXPECT_EQ(current_cancel_token(), nullptr);
}

TEST(SignalGuard, FirstSignalTripsTheTokenCooperatively) {
  CancelToken token;
  {
    const SignalGuard guard(token);
    EXPECT_FALSE(guard.triggered());
    EXPECT_EQ(guard.signal(), 0);
    // One delivery: the handler trips the token and returns — the process
    // must NOT die here (the second delivery is the forced _exit path,
    // exercised end-to-end by the CI interruption matrix).
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(guard.triggered());
    EXPECT_EQ(guard.signal(), SIGTERM);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  }
  // The destructor released the handler slot: a later run (or test) may
  // install its own guard.
  CancelToken next;
  EXPECT_NO_THROW(SignalGuard{next});
  EXPECT_FALSE(next.cancelled());
}

TEST(SignalGuard, RefusesNesting) {
  const CancelToken token;
  const SignalGuard guard(token);
  const CancelToken other;
  EXPECT_THROW(SignalGuard{other}, ModelError);
}

}  // namespace
}  // namespace raidrel::util
