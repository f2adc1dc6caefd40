package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Estimate

class MetricsSpec extends AnyFunSuite {

  private val nan = Double.NaN

  test("percentile is nearest-rank and needs ten samples beyond it") {
    val xs = Array.tabulate(1000)(i => (1000 - i).toDouble) // 1000 .. 1, unsorted
    assert(Metrics.percentile(xs, 0.99) == 990.0)
    assert(Metrics.percentile(xs, 0.5) == 500.0)
    assert(Metrics.percentile(xs.take(999), 0.99).isNaN, "999 samples leave 9 beyond p99")
    assert(Metrics.percentile(Array.tabulate(20)(_.toDouble + 1), 0.5) == 10.0)
    assert(Metrics.percentile(Array.tabulate(19)(_.toDouble + 1), 0.5).isNaN)
    assert(Metrics.percentile(Array.empty[Double], 0.5).isNaN)
  }

  test("fastest keeps each query's smallest timing over the passes") {
    val passes = Array(Array(5.0, 2.0, 9.0), Array(4.0, 3.0, 9.5), Array(6.0, 2.5, 8.0))
    assert(Metrics.fastest(passes).toSeq == Seq(4.0, 2.0, 8.0))
    assert(Metrics.fastest(Array(Array(1.0, 2.0))).toSeq == Seq(1.0, 2.0))
    assertThrows[IllegalArgumentException](Metrics.fastest(Array(Array(1.0), Array(1.0, 2.0))))
    assertThrows[IllegalArgumentException](Metrics.fastest(Array.empty[Array[Double]]))
  }

  test("median_re skips zero and NaN truths") {
    val values = Array(1.1, 5.0, 7.0, 2.0, 3.0)
    val truths = Array(1.0, 0.0, nan, 1.0, Double.PositiveInfinity)
    assert(math.abs(Metrics.medianRe(values, truths) - 0.55) < 1e-12) // median of 0.1 and 1.0
    assert(Metrics.medianRe(Array(1.0), Array(0.0)).isNaN)
  }

  test("ci_coverage counts queries with a CI and a scorable truth") {
    val values   = Array(10.0, 10.0, 10.0, 10.0, 10.0)
    val ciHalves = Array(1.0, 0.5, nan, 0.0, 2.0)
    val truths   = Array(11.0, 11.0, 50.0, 10.0, 0.0)
    // counted: q0 (edge, covered), q1 (missed), q3 (exact, covered); q2 no CI, q4 zero truth
    assert(math.abs(Metrics.ciCoverage(values, ciHalves, truths) - 2.0 / 3) < 1e-12)
    assert(Metrics.ciCoverage(values, Array.fill(5)(nan), truths).isNaN)
  }

  test("an answer fails on a non-finite value or bounds that miss a finite truth") {
    assert(Metrics.answerFailure(Estimate(5.0, 1.0, 4.0, 6.0), 5.5).isEmpty)
    assert(Metrics.answerFailure(Estimate(5.0, 1.0, 4.0, 6.0), 6.0 + 1e-12).isEmpty, "slack")
    assert(Metrics.answerFailure(Estimate(5.0, 1.0, 4.0, 6.0), 6.1).nonEmpty)
    assert(Metrics.answerFailure(Estimate(nan, nan, 0.0, 9.0), 5.0).nonEmpty)
    assert(Metrics.answerFailure(Estimate(Double.NegativeInfinity, nan, Double.NegativeInfinity, 9.0), 5.0).nonEmpty)
    assert(Metrics.answerFailure(Estimate(5.0, 1.0, nan, nan), 5.0).nonEmpty, "NaN bounds miss")
    assert(Metrics.answerFailure(Estimate(nan, nan), nan).isEmpty, "no finite truth to miss")
  }

  test("failed_frac counts failed and thrown operations against attempted ones") {
    val f = new Metrics.Failures
    f.record("ok")(None)
    f.record("bad")(Some("wrong"))
    f.record("throws")(throw new IllegalStateException("boom"))
    f.record("ok")(None)
    assert(f.attempted == 4 && f.failed == 2)
    assert(f.fraction == 0.5)
    assert(f.examples == Seq("bad: wrong", "throws: threw IllegalStateException: boom"))
    assert(new Metrics.Failures().fraction == 0.0)
  }

  test("sortTogether sorts keys and keeps each value with its key") {
    val rnd  = new scala.util.Random(7)
    val keys = Array.fill(5000)(rnd.nextInt(300).toDouble) // many ties
    val vals = keys.map(k => k * 2 + 1)
    Workload.sortTogether(keys, vals)
    assert(keys.sameElements(keys.sorted))
    assert(keys.indices.forall(i => vals(i) == keys(i) * 2 + 1))
  }

  test("build stages tile the build from its actions") {
    val actions = Seq(
      Action(1, "prep", 1000, 1100, 2),
      Action(2, "opt", 1100, 1150, 1),
      Action(3, "agg", 1200, 1800, 3),
      Action(4, "sample", 1850, 1990, 1),
    )
    val s = BuildStages.attribute(1000, 2000, actions, Set("prep"), Set("opt"), optimizeMs = 30)
    assert(s == BuildStages(100, 50, 30, 620, 200))
    assert(s.totalMs == 1000)
  }
}
