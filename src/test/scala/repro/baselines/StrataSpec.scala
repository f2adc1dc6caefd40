package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Every approach is the one stratified estimator (`Strata`) over a different
  * cover and list of strata: with the same sample as their only stratum, US,
  * ST, PASS and AQP++ answer alike, and all four answer NaN where nothing is
  * observed.
  */
class StrataSpec extends AnyFunSuite {

  private val (cs, as) = TestSynopses.genData(2000, seed = 31)

  /** PASS with one leaf over all of the data, sampled 300 rows. */
  private val onePass   = TestSynopses.build1D(cs, as, Array.empty, samplesPerLeaf = 300, seed = 32)
  private val sample    = onePass.samples(0)
  private val us        = new UniformSampleSynopsis(sample, cs.length.toLong)
  private val fourLeafs = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), samplesPerLeaf = 0)
  /** AQP++ whose cover is four 25-wide leaves, which no query below contains. */
  private val aqp = new PrecompUniformSynopsis(fourLeafs.root, sample.coords, sample.values, cs.length.toLong)

  /** Ranges narrower than any leaf, strictly inside the data. */
  private def queries(seed: Long): Seq[Rect] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(40) {
      val a = 1 + rnd.nextDouble() * 78
      Rect.range(a, a + 1 + rnd.nextDouble() * 19)
    }
  }

  private def assertSame(got: Estimate, want: Estimate, what: String): Unit = {
    assert(RowScan.close(got.value, want.value, 1e-12), s"$what value: $got vs $want")
    assert(RowScan.close(got.ciHalf, want.ciHalf, 1e-12), s"$what ciHalf: $got vs $want")
    assert(got.processedSamples == want.processedSamples, s"$what processed: $got vs $want")
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"US, ST over one leaf and PASS over one partial leaf answer alike ($agg)") {
      val st = new StratifiedSampleSynopsis(onePass)
      for (q <- queries(33)) {
        val want = us.answer(q, agg)
        assert(want.processedSamples == 300)
        assertSame(st.answer(q, agg), want, s"ST q=$q")
        assertSame(onePass.answer(q, agg), want, s"PASS q=$q")
      }
    }
  }

  for (agg <- Agg.all) {
    test(s"AQP++ with a cover no query contains equals US on the same sample ($agg)") {
      for (q <- queries(34)) assertSame(aqp.answer(q, agg), us.answer(q, agg), s"AQP++ q=$q")
    }
  }

  test("AVG/MIN/MAX are NaN, CI included, when no covered row exists and no sampled row matches") {
    // no row in [40, 60); the query overlaps both leaves of the PASS/ST tree
    // and the AQP++ cover without containing any of them
    val keep       = cs.indices.filter(i => cs(i) < 40 || cs(i) >= 60)
    val (hc, ha)   = (keep.map(cs).toArray, keep.map(as).toArray)
    val pass       = TestSynopses.build1D(hc, ha, Array(50.0), samplesPerLeaf = 0)
    val whole      = TestSynopses.build1D(hc, ha, Array.empty, samplesPerLeaf = 0).samples(0)
    val approaches = Seq[(String, Synopsis)](
      "PASS"  -> pass,
      "ST"    -> new StratifiedSampleSynopsis(pass),
      "US"    -> new UniformSampleSynopsis(whole, hc.length.toLong),
      "AQP++" -> new PrecompUniformSynopsis(pass.root, whole.coords, whole.values, hc.length.toLong))
    val q = Rect.range(45.0, 55.0)
    for ((name, syn) <- approaches; agg <- Seq(Agg.Avg, Agg.Min, Agg.Max)) {
      val e = syn.answer(q, agg)
      assert(e.value.isNaN && e.ciHalf.isNaN, s"$name $agg: $e")
    }
    for ((name, syn) <- approaches; agg <- Seq(Agg.Sum, Agg.Count))
      assert(syn.answer(q, agg).value == 0.0, s"$name $agg")
    // PASS's hard bounds are unchanged: nothing observed leaves MIN unbounded above
    val min = pass.answer(q, Agg.Min)
    assert(min.ub == Double.PositiveInfinity && min.lb == pass.leaves.map(_.min).min)
  }
}
