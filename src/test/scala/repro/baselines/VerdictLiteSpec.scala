package repro.baselines

import repro.SparkSpec
import repro.core.{Agg, Rect}
import repro.bench.GroundTruth
import repro.data.Datasets

/** VerdictDB-lite: the 100% scramble must be (near-)exact; the 10% scramble
  * trades accuracy for storage/latency exactly like the paper's comparison.
  */
class VerdictLiteSpec extends SparkSpec {

  private lazy val df = Datasets.instacartLite(spark, sf = 0.01, seed = 2).persist()
  private lazy val gt = GroundTruth.collect(df, Seq("product_id"), "reordered")

  private def queries(seed: Long, n: Int): Seq[Rect] = {
    // stay in the populated head of the Zipf key space so a 10% scramble has
    // matching rows (the empty tail is the selective-query failure mode PASS
    // addresses, tested elsewhere)
    val rnd = new scala.util.Random(seed)
    Seq.fill(n) {
      val a = rnd.nextDouble() * 500
      Rect.range(a, a + 1000 + rnd.nextDouble() * 8000)
    }
  }

  test("ratio bounds are validated") {
    intercept[IllegalArgumentException] { VerdictLite.build(df, Seq("product_id"), "reordered", 0.0) }
    intercept[IllegalArgumentException] { VerdictLite.build(df, Seq("product_id"), "reordered", 1.5) }
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"100% scramble answers are near-exact ($agg)") {
      val (syn, _) = VerdictLite.build(df, Seq("product_id"), "reordered", 1.0, seed = 3)
      for (q <- queries(1, 15)) {
        val truth = gt.answer(q, agg)
        if (!truth.isNaN && truth != 0) {
          val est = syn.answer(q, agg)
          assert(math.abs(est.value - truth) / math.abs(truth) < 1e-6,
                 s"q=$q est=${est.value} truth=$truth")
        }
      }
    }
  }

  test("10% scramble is noisier than 100% but unbiased-ish") {
    val (s10, _)  = VerdictLite.build(df, Seq("product_id"), "reordered", 0.10, seed = 5)
    val (s100, _) = VerdictLite.build(df, Seq("product_id"), "reordered", 1.0, seed = 5)
    def medRe(syn: UniformSampleSynopsis): Double = {
      val errs = queries(2, 40).flatMap { q =>
        val truth = gt.answer(q, Agg.Sum)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, Agg.Sum).value - truth) / math.abs(truth))
      }.sorted
      errs(errs.length / 2)
    }
    val e10 = medRe(s10); val e100 = medRe(s100)
    assert(e100 < 1e-6)
    assert(e10 > e100)
    assert(e10 < 0.4, s"10% scramble median RE $e10 unexpectedly large")
  }

  test("storage scales with the scramble ratio") {
    val (s10, _)  = VerdictLite.build(df, Seq("product_id"), "reordered", 0.10, seed = 7)
    val (s100, _) = VerdictLite.build(df, Seq("product_id"), "reordered", 1.0, seed = 7)
    assert(s100.storageBytes > 5L * s10.storageBytes)
    assert(math.abs(s100.k - gt.n) < gt.n * 0.01)
  }
}
