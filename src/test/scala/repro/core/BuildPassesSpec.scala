package repro.core

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.{Oracle, SparkSpec}
import repro.bench.Tables
import repro.data.Datasets

import scala.collection.mutable

/** The build's full-data passes: the typed, uncached leaf-id passes give the
  * same leaf aggregates and sample rows as the persisted boxed-array passes
  * they replaced (`LegacyPasses`), the build caches nothing, and a NULL or NaN
  * predicate value keeps a row out of every range, cover side included.
  */
class BuildPassesSpec extends SparkSpec {

  /** Runs the old and the new passes over one skeleton and compares them. */
  private def differential(df: DataFrame, predCols: Seq[String], aggCol: String,
                           partitioner: PassBuilder.Partitioner, alloc: PassBuilder.Allocation): Unit = {
    val seed = 13L
    val p    = PassBuilder.prepare(df, predCols, aggCol)
    val sk   = PassBuilder.skeleton(partitioner, PassBuilder.optSample(p, 4096, seed), predCols.length, p.dataRect)
    val (newStats, newRows) = PassBuilder.leafPasses(p, predCols, aggCol, sk, alloc, seed)
    val (oldStats, oldRows) = LegacyPasses.run(p, predCols, aggCol, sk, alloc, seed)
    assert(newStats.keySet == oldStats.keySet)
    for ((id, (c, s, mn, mx)) <- oldStats) {
      val (c2, s2, mn2, mx2) = newStats(id)
      assert(c2 == c && mn2 == mn && mx2 == mx, s"leaf $id: ${newStats(id)} vs ${oldStats(id)}")
      assert(RowScan.close(s2, s, 1e-12), s"leaf $id sum: $s2 vs $s")
    }
    assert(newRows.nonEmpty)
    assert(newRows.length == oldRows.length, s"${newRows.length} vs ${oldRows.length} sample rows")
    for (i <- newRows.indices) assert(newRows(i) == oldRows(i), s"sample row $i: ${newRows(i)} vs ${oldRows(i)}")
  }

  test("typed uncached passes equal the persisted array-UDF passes: NYC 1-D Adp1D(64) + TotalBudget") {
    val nyc = Datasets.nycLite(spark, sf = 0.01).persist()
    try {
      val k = math.max(200, math.ceil(Tables.sampleRate * nyc.count()).toInt)
      differential(nyc, Seq("pickup_datetime"), "trip_distance",
        PassBuilder.Adp1D(64, Agg.Sum), PassBuilder.TotalBudget(10L * k))
    } finally nyc.unpersist()
  }

  test("typed uncached passes equal the persisted array-UDF passes: NYC 5-D KdGreedy + PerLeaf(30)") {
    val nyc = Datasets.nycLite(spark, sf = 0.01, seed = 4).persist()
    try differential(nyc, Tables.nycTemplateCols, "trip_distance",
      PassBuilder.KdGreedy(256, Agg.Sum), PassBuilder.PerLeaf(30))
    finally nyc.unpersist()
  }

  test("the build caches nothing: no stage reads a copy it persisted, and no copy is left behind") {
    val nyc = Datasets.nycLite(spark, sf = 0.005, seed = 5).persist()
    val sc  = spark.sparkContext
    val readPersisted = mutable.Set.empty[Int]
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = readPersisted.synchronized {
        readPersisted ++= e.stageInfo.rddInfos.filter(_.storageLevel.isValid).map(_.id)
      }
    }
    try {
      nyc.count()
      val before = sc.getPersistentRDDs.keySet
      TestListenerBus.drain(sc)
      sc.addSparkListener(listener)
      try {
        PassBuilder.build(nyc, Seq("pickup_time", "pickup_date"), "trip_distance",
          PassBuilder.KdGreedy(16, Agg.Sum), PassBuilder.TotalBudget(500), seed = 3)
        PassBuilder.build(nyc, Seq("pickup_datetime"), "trip_distance",
          PassBuilder.Adp1D(16, Agg.Sum), PassBuilder.Rate(0.01), seed = 3)
        TestListenerBus.drain(sc)
      } finally sc.removeSparkListener(listener)
      assert(sc.getPersistentRDDs.keySet == before)
      val extra = readPersisted.synchronized(readPersisted.toSet) -- before
      assert(extra.isEmpty, s"stages read RDDs persisted during the build: $extra")
    } finally nyc.unpersist()
  }

  // ---- NULL and NaN predicates, checked against DuckDB -----------------------

  /** `n` rows of `d` predicate columns `x0..` and an aggregate `a` (some
    * negative). Column j is NaN where `id % 11 == 5 + j` and NULL where
    * `id % 13 == 7 + j`; otherwise it is a permutation of 0..n-1.
    */
  private def dirtyTable(n: Int, d: Int): DataFrame = {
    val id = col("id")
    val xs = (0 until d).map { j =>
      val mult = Seq(1L, 7919L)(j)
      when(id % 11 === 5 + j, lit(Double.NaN))
        .when(id % 13 === 7 + j, lit(null).cast(DoubleType))
        .otherwise(((id * mult) % n).cast(DoubleType)).as(s"x$j")
    }
    spark.range(n).select(xs :+ ((id % 97) - 20).cast(DoubleType).as("a"): _*)
  }

  /** Builds a full-sample (so exact) synopsis over `df` and checks every
    * aggregate of every query against the DuckDB-verified truth: the value
    * exactly (sums within 1e-9) and the hard bounds around it.
    */
  private def checkExact(df: DataFrame, predCols: Seq[String], partitioner: PassBuilder.Partitioner,
                         queries: Seq[Rect]): Unit = {
    val cached = df.persist()
    try {
      val syn = PassBuilder.build(cached, predCols, "a", partitioner, PassBuilder.Rate(1.0),
        optSampleSize = 2000, seed = 17).synopsis
      for (q <- queries) {
        val where = predCols.indices.map { j =>
          s"CAST(${predCols(j)} AS DOUBLE) >= ${q.lo(j)} AND CAST(${predCols(j)} AS DOUBLE) < ${q.hi(j)}"
        }.mkString(" AND ")
        val truthDf = cached
          .filter(predCols.indices.map(j => col(predCols(j)) >= q.lo(j) && col(predCols(j)) < q.hi(j)).reduce(_ && _))
          .agg(sum(col("a")).as("s"), count(lit(1)).as("c"), avg(col("a")).as("av"),
               min(col("a")).as("mn"), max(col("a")).as("mx"))
        Oracle.assertEquivalent(truthDf,
          "SELECT SUM(CAST(a AS DOUBLE)) AS s, COUNT(*) AS c, AVG(CAST(a AS DOUBLE)) AS av, " +
            s"MIN(CAST(a AS DOUBLE)) AS mn, MAX(CAST(a AS DOUBLE)) AS mx FROM t WHERE $where",
          "t" -> cached)
        val row = truthDf.collect()(0)
        assert(row.getLong(1) > 0, s"query $q matches no row")
        val truths = Seq(Agg.Sum -> row.getDouble(0), Agg.Count -> row.getLong(1).toDouble,
          Agg.Avg -> row.getDouble(2), Agg.Min -> row.getDouble(3), Agg.Max -> row.getDouble(4))
        for ((agg, truth) <- truths) {
          val est = syn.answer(q, agg)
          val tol = 1e-9 * (1 + truth.abs)
          assert(math.abs(est.value - truth) <= tol, s"$agg over $q: ${est.value} vs truth $truth")
          assert(est.lb <= truth + tol && truth - tol <= est.ub, s"$agg over $q: bounds [${est.lb}, ${est.ub}] miss $truth")
        }
      }
    } finally cached.unpersist()
  }

  test("NULL and NaN predicates match no range in a 1-D build (values and hard bounds vs DuckDB)") {
    val queries = Seq(Rect.range(0, 1000), Rect.range(0, 2000), Rect.range(5, 6.5), Rect.range(137.5, 1771),
                      Rect.range(-1e9, 1e9), Rect.range(1999, 2500))
    checkExact(dirtyTable(2000, 1), Seq("x0"), PassBuilder.Adp1D(8, Agg.Sum), queries)
  }

  test("NULL and NaN predicates match no cell in a 2-D kd build (values and hard bounds vs DuckDB)") {
    val queries = Seq(Rect(Array(0.0, 0.0), Array(1000.0, 1000.0)), Rect(Array(0.0, 0.0), Array(2000.0, 2000.0)),
                      Rect(Array(300.0, 50.0), Array(1700.0, 1200.5)), Rect(Array(-1e9, 999.0), Array(1e9, 1e9)))
    checkExact(dirtyTable(2000, 2), Seq("x0", "x1"), PassBuilder.KdGreedy(16, Agg.Sum), queries)
  }

  test("the data box and the optimization sample leave NULL and NaN predicates out") {
    val p = PassBuilder.prepare(dirtyTable(2000, 2), Seq("x0", "x1"), "a")
    assert(p.totalRows == 2000)
    assert(p.dataRect.lo.sameElements(Array(0.0, 0.0)), p.dataRect)
    assert(p.dataRect.hi.sameElements(Array(Math.nextUp(1999.0), Math.nextUp(1999.0))), p.dataRect)
    val rows = PassBuilder.optSample(p, 4096, seed = 1)
    assert(rows.nonEmpty && rows.length < 2000)
    assert(rows.forall(r => (0 until 2).forall(j => !r.isNullAt(j) && !r.getDouble(j).isNaN)))
  }
}
