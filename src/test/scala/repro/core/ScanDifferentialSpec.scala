package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.baselines.StratifiedSampleSynopsis
import repro.bench.{GroundTruth, Tables, Workloads}
import repro.data.Datasets

/** Differential test of the sorted, column-major leaf-sample scan against the
  * row-by-row reference scan (`RowScan`) on Spark-built synopses: every leaf's
  * moments, and every field of every answer, for the Table 1 workloads, a 5-D
  * kd synopsis and the 0-variance AVG path.
  */
class ScanDifferentialSpec extends SparkSpec {

  /** Compares kernel and reference on every leaf and answer; returns the
    * number of queries whose frontier held a 0-variance node.
    */
  private def compare(syn: PassSynopsis, queries: Array[Rect], aggs: Seq[Agg]): Int = {
    val ref = RowScan.reference(syn)
    var zeroVarQueries = 0
    for (q <- queries) {
      for (id <- syn.leaves.indices) {
        val diffs = RowScan.momentDiffs(syn.leafMoments(id, q), ref.leafMoments(id, q))
        assert(diffs.isEmpty, s"leaf $id, q=$q: ${diffs.mkString("; ")}")
      }
      for (agg <- aggs) {
        val diffs = RowScan.estimateDiffs(syn.answer(q, agg), ref.answer(q, agg))
        assert(diffs.isEmpty, s"$agg q=$q: ${diffs.mkString("; ")}")
      }
      if (PartitionTree.mcf(syn.root, q, zeroVarRule = true).zeroVar.nonEmpty) zeroVarQueries += 1
    }
    zeroVarQueries
  }

  private def table1Workload(name: String, df: => DataFrame, predCol: String, aggCol: String): Unit =
    test(s"kernel equals the row scan on the Table 1 $name workload (SUM/COUNT/AVG/MIN/MAX, PASS and ST)") {
      val cached = df.persist()
      try {
        val gt = GroundTruth.collect(cached, Seq(predCol), aggCol)
        val qs = Workloads.ranges1D(gt, 150, minFrac = 0.01, seed = 7)
        val k  = math.max(200, math.ceil(Tables.sampleRate * gt.n).toInt)
        val pass = PassBuilder.build(cached, Seq(predCol), aggCol,
          PassBuilder.Adp1D(Tables.partitions, Agg.Sum), PassBuilder.TotalBudget(10L * k), seed = 9)
        compare(pass.synopsis, qs, Agg.all)
        val st = PassBuilder.build(cached, Seq(predCol), aggCol,
          PassBuilder.EqualDepth1D(Tables.partitions), PassBuilder.TotalBudget(k), seed = 9).synopsis
        val (got, want) = (new StratifiedSampleSynopsis(st), new StratifiedSampleSynopsis(RowScan.reference(st)))
        for (q <- qs; agg <- Agg.all) {
          val diffs = RowScan.estimateDiffs(got.answer(q, agg), want.answer(q, agg))
          assert(diffs.isEmpty, s"ST $agg q=$q: ${diffs.mkString("; ")}")
        }
      } finally cached.unpersist()
    }

  table1Workload("Intel", Datasets.intelLite(spark, sf = 0.01), "time", "light")
  table1Workload("Insta", Datasets.instacartLite(spark, sf = 0.01), "product_id", "reordered")
  table1Workload("NYC", Datasets.nycLite(spark, sf = 0.01), "pickup_datetime", "trip_distance")

  test("kernel equals the row scan on a 5-D KdGreedy synopsis over the NYC stand-in") {
    val nyc = Datasets.nycLite(spark, sf = 0.01, seed = 4).persist()
    try {
      val gt  = GroundTruth.collect(nyc, Tables.nycTemplateCols, "trip_distance")
      val qs  = Workloads.rects(gt, 120, minCount = math.max(50L, gt.n / 1000), seed = 8)
      val syn = PassBuilder.build(nyc, Tables.nycTemplateCols, "trip_distance",
        PassBuilder.KdGreedy(256, Agg.Sum), PassBuilder.PerLeaf(30), seed = 10).synopsis
      assert(syn.samples.exists(_.size > 0))
      compare(syn, qs, Agg.all)
    } finally nyc.unpersist()
  }

  test("kernel equals the row scan on the adversarial AVG synopsis (0-variance pooled path)") {
    val adv = Datasets.adversarial(spark, sf = 0.02).persist()
    try {
      val gt  = GroundTruth.collect(adv, Seq("c"), "a")
      val qs  = Workloads.ranges1D(gt, 150, minFrac = 0.01, seed = 11)
      val syn = PassBuilder.build(adv, Seq("c"), "a",
        PassBuilder.Adp1D(16, Agg.Avg), PassBuilder.Rate(0.05), seed = 12).synopsis
      val zeroVarQueries = compare(syn, qs, Agg.all)
      assert(zeroVarQueries > 0, "no query reached the 0-variance path")
    } finally adv.unpersist()
  }
}
