package repro.perfbench

import java.io.{File, PrintWriter}

import org.apache.spark.sql.{Row, SparkSession}
import repro.core.PassBuilder.{Adp1D, Allocation, BuildResult, KdGreedy, PerLeaf, Rate, TotalBudget}
import repro.core._

/** Runs the first half of one benchmark workload: it generates the inputs,
  * builds the synopsis (timed, and traced with `--trace 1`), checks every
  * answer against the ground truth, and hands the synopsis, the queries and
  * the metrics so far to [[QueryMain]] through the file `--handoff`. Query
  * timing runs there, in a JVM of its own. Exits non-zero, after printing
  * the result line, when no synopsis could be built.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --handoff <file> [--out <dir>] [--sha <git sha>] [--source-hash <hash>]`
  */
object Main {

  /** Builds before timing starts: the first two builds in a JVM run 2–3×
    * slower than later ones (class loading, JIT, Spark code generation).
    */
  val warmupBuilds = 2
  /** Timed builds; `setup_s` is their median. */
  val timedBuilds = 5
  /** The synopsis's own sampling seed, fixed like any other build setting. */
  val buildSeed = 42L
  val optSampleSize = 4096

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, sha: String, sourceHash: String, handoff: String)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         kv.getOrElse("out", "perfbench/out"), kv.getOrElse("sha", "unknown"),
         kv.getOrElse("source-hash", "unknown"), need("handoff"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val w    = Workload.byName(args.workload)
    new File(args.out).mkdirs()
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.warehouse.dir", new File(args.out, "warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val ok =
      try run(spark, w, args)
      finally spark.stop()
    if (!ok) sys.exit(1)
  }

  private def median(xs: Seq[Double]): Double = repro.bench.Harness.median(xs)
  private def secondsOf(body: => Unit): Double = { val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9 }

  /** Samples requested by the allocation, the denominator of `synopsis.budget_use`. */
  private def requested(alloc: Allocation, leaves: Int, rows: Long): Double = alloc match {
    case TotalBudget(t) => t.toDouble
    case PerLeaf(n)     => n.toDouble * leaves
    case Rate(r)        => r * rows
  }

  /** Calls the workload's optimizer directly on an optimization sample, as
    * `PassBuilder.build` does, and returns its objective: the DP value for
    * ADP, the largest leaf score the kd greedy expansion left behind.
    */
  private def optimize(w: Workload, rows: Array[Row], dataRect: Rect): Double = w.partitioner match {
    case Adp1D(k, agg, deltaM) =>
      Dp1D.adp(SortedSample1D(rows.map(_.getDouble(0)), rows.map(_.getDouble(1))), k, agg, deltaM).value
    case KdGreedy(k, agg, skew) =>
      val d = w.predCols.length
      KdTree.buildGreedy(rows.map(r => Array.tabulate(d)(r.getDouble)), rows.map(_.getDouble(d)),
                         k, agg, dataRect, skew).leaves.map(_.score).max
    case other => throw new IllegalArgumentException(s"no direct optimizer call for $other")
  }

  def run(spark: SparkSession, w: Workload, args: Args): Boolean = {
    val phases   = scala.collection.mutable.ArrayBuffer.empty[(String, Any)]
    var phaseT0  = System.nanoTime()
    def phase(name: String): Unit = {
      val now = System.nanoTime(); phases += name -> (now - phaseT0) / 1e9; phaseT0 = now
    }
    val failures = new Metrics.Failures
    val in       = Workload.inputs(spark, w, args.seed)
    phase("inputs")
    val alloc    = w.allocation(in.rows)
    def build(): BuildResult =
      PassBuilder.build(in.df, w.predCols, w.aggCol, w.partitioner, alloc,
                        optSampleSize = optSampleSize, seed = buildSeed)

    // ---- set-up: warm-up builds, then timed builds --------------------------
    var last: BuildResult = null
    var firstS = Double.NaN
    def attemptBuild(): Double = {
      var s = Double.NaN
      failures.record("build") {
        var r: BuildResult = null
        s = secondsOf { r = build() }
        val changed = last != null && (r.synopsis.storedSamples != last.synopsis.storedSamples ||
          r.synopsis.storageBytes != last.synopsis.storageBytes)
        last = r
        if (changed) Some("a rebuild at the same seed gave a different synopsis") else None
      }
      s
    }
    for (i <- 0 until warmupBuilds) { val s = attemptBuild(); if (i == 0) firstS = s }
    val buildS = Array.fill(timedBuilds)(attemptBuild())
    val rec = if (args.trace) Some(SparkRecorder.install(spark)) else None
    if (last == null) return report(args, w, failures, Map.empty, Seq.empty, Json.obj(), stamp(spark, args, w))
    phase("builds")

    // ---- per-layer build trace: direct stage calls, then traced builds ------
    val layer = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val checks = scala.collection.mutable.ArrayBuffer.empty[(String, Any)]
    rec.foreach { r =>
      val prepS = Array.fill(timedBuilds)(secondsOf(PassBuilder.prepare(in.df, w.predCols, w.aggCol)))
      val (p, prepAct) = r.record(PassBuilder.prepare(in.df, w.predCols, w.aggCol))
      val optS = Array.fill(timedBuilds)(secondsOf(PassBuilder.optSample(p, optSampleSize, buildSeed)))
      val (sampleRows, optAct) = r.record(PassBuilder.optSample(p, optSampleSize, buildSeed))
      var objective = Double.NaN
      val optimizeS = Array.fill(timedBuilds)(secondsOf { objective = optimize(w, sampleRows, p.dataRect) })
      val optimizeMs = median(optimizeS.toSeq) * 1e3
      val traced = Array.fill(timedBuilds) {
        var t0, t1 = 0L
        var wallS  = 0.0
        val (res, act) = r.record {
          t0 = System.currentTimeMillis()
          var res: BuildResult = null
          wallS = secondsOf { res = build() }
          t1 = System.currentTimeMillis()
          res
        }
        val stages = BuildStages.attribute(t0, t1, act.actions,
          prepAct.actions.map(_.site).toSet, optAct.actions.map(_.site).toSet, optimizeMs)
        (res, act, stages, wallS)
      }
      spark.sparkContext.removeSparkListener(r)
      val stages = traced.map(_._3)
      val acts   = traced.map(_._2)
      def med(f: BuildStages => Double) = median(stages.map(f).toSeq)
      layer ++= Seq(
        "build.prepare_ms" -> med(_.prepareMs),
        "build.opt_sample_ms" -> med(_.optSampleMs),
        "build.optimize_ms" -> optimizeMs,
        "build.aggregate_ms" -> med(_.aggregateMs),
        "build.sample_ms" -> med(_.sampleMs),
        "build.scans" -> median(acts.map(_.scans.toDouble).toSeq),
        "build.spark_jobs" -> median(acts.map(_.jobs.toDouble).toSeq),
        "build.shuffle_bytes" -> median(acts.map(_.shuffleBytes.toDouble).toSeq),
        "build.executor_ms" -> median(acts.map(_.executorMs.toDouble).toSeq),
        "build.first_s" -> firstS,
        "opt.leaves" -> last.synopsis.leaves.length.toDouble,
        "opt.nonempty_leaves" -> last.synopsis.leaves.count(_.count > 0).toDouble,
        "opt.objective" -> objective,
        "trace.setup_overhead_s" -> (median(traced.map(_._4).toSeq) - median(buildS.toSeq)),
      )
      checks ++= Seq(
        "prepare_direct_ms" -> median(prepS.toSeq) * 1e3,
        "opt_sample_direct_ms" -> median(optS.toSeq) * 1e3,
        "optimize_gap_ms" -> median(traced.map { case (_, a, _, _) =>
          val sites    = (prepAct.actions ++ optAct.actions).map(_.site).toSet
          val optEnd   = a.actions.filter(x => sites(x.site)).map(_.endMs).max
          val aggStart = a.actions.filterNot(x => sites(x.site)).map(_.startMs).min
          (aggStart - optEnd).toDouble
        }.toSeq),
        "stages_minus_wall_ms" -> median(traced.map(t => t._3.totalMs - t._4 * 1e3).toSeq),
        "objective_matches_build" -> traced.forall(t =>
          t._1.partitioningValue.isNaN || t._1.partitioningValue == objective),
        "build_actions" -> traced.head._2.actions.map(a => s"${a.site}: ${a.endMs - a.startMs} ms, ${a.jobs} jobs"),
      )
    }

    phase("build_trace")

    // ---- answer quality and failures, checked against the ground truth -----
    val syn = last.synopsis
    val qs = in.queries; val aggs = in.aggs; val n = qs.length
    val values   = Array.fill(n)(Double.NaN)
    val ciHalves = Array.fill(n)(Double.NaN)
    for (i <- 0 until n) failures.record(s"query $i ${aggs(i)} ${qs(i)}") {
      val est = syn.answer(qs(i), aggs(i))
      values(i) = est.value; ciHalves(i) = est.ciHalf
      Metrics.answerFailure(est, in.truths(i))
    }

    rec.foreach { _ =>
      var visited = 0L; var cover = 0L; var partial = 0L; var zeroVar = 0L
      var processed = 0L; var matched = 0L; var skip = 0.0
      for (i <- 0 until n) {
        val f = PartitionTree.mcf(syn.root, qs(i), QueryMain.zeroVarFor(syn, aggs(i)))
        visited += f.visited; cover += f.cover.length; partial += f.partial.length
        zeroVar += f.zeroVar.length
        val est = syn.answer(qs(i), aggs(i))
        processed += est.processedSamples; skip += est.skipRate
        val scanned = f.partial.iterator.map(_.leafId) ++
          f.zeroVar.iterator.flatMap(z => z.leafLo to z.leafHi)
        scanned.foreach(id => matched += syn.samples(id).coords.count(c => qs(i).contains(c)))
      }
      layer ++= Seq(
        "synopsis.stored_samples" -> syn.storedSamples.toDouble,
        "synopsis.budget_use" -> syn.storedSamples / requested(alloc, syn.leaves.length, in.rows),
        "mcf.nodes_visited" -> visited.toDouble / n,
        "mcf.cover_nodes" -> cover.toDouble / n,
        "mcf.partial_leaves" -> partial.toDouble / n,
        "mcf.zero_var_nodes" -> zeroVar.toDouble / n,
        "answer.processed_samples" -> processed.toDouble / n,
        "answer.sample_match_ratio" -> (if (processed == 0) 0.0 else matched.toDouble / processed),
        "answer.skip_rate" -> skip / n,
        "answer.ci_ratio" -> Metrics.medianCiRatio(ciHalves, in.truths),
        "harness.datagen_s" -> in.datagenS,
        "harness.truth_s" -> in.truthS,
        "harness.querygen_s" -> in.querygenS,
      )
    }

    phase("scoring")
    val endToEnd = Seq(
      "setup_s" -> median(buildS.toSeq),
      "median_re" -> Metrics.medianRe(values, in.truths),
      "ci_coverage" -> Metrics.ciCoverage(values, ciHalves, in.truths),
      "storage_mb" -> syn.storageBytes / 1048576.0,
    )
    val info = Seq(
      "distinct_queries" -> n,
      "timed_builds" -> timedBuilds,
      "build_s" -> buildS.toSeq,
      "median_re_by_agg" -> Json.Obj(w.aggs.map { a =>
        val idx = (0 until n).filter(aggs(_) == a).toArray
        a.toString -> Metrics.medianRe(idx.map(values), idx.map(in.truths))
      }),
      "harness_datagen_s" -> in.datagenS,
      "harness_truth_s" -> in.truthS,
      "harness_querygen_s" -> in.querygenS,
      "rows" -> in.rows,
      "phases_s" -> Json.Obj(phases.toSeq),
    )
    QueryMain.save(args.handoff, QueryMain.Handoff(args, syn, qs, aggs, failures,
      endToEnd, layer.toSeq, info, checks.toSeq, stamp(spark, args, w)))
    true
  }

  /** Name → unit of every metric this program reports. */
  val units: Map[String, String] = Map(
    "setup_s" -> "s", "query_p50_us" -> "us", "query_p99_us" -> "us", "median_re" -> "ratio",
    "ci_coverage" -> "ratio", "storage_mb" -> "MB",
    "build.prepare_ms" -> "ms", "build.opt_sample_ms" -> "ms", "build.optimize_ms" -> "ms",
    "build.aggregate_ms" -> "ms", "build.sample_ms" -> "ms", "build.scans" -> "count",
    "build.spark_jobs" -> "count", "build.shuffle_bytes" -> "bytes", "build.executor_ms" -> "ms",
    "build.first_s" -> "s", "opt.leaves" -> "count", "opt.nonempty_leaves" -> "count",
    "opt.objective" -> "variance", "synopsis.stored_samples" -> "count", "synopsis.budget_use" -> "ratio",
    "mcf.us_p50" -> "us", "mcf.nodes_visited" -> "count", "mcf.cover_nodes" -> "count",
    "mcf.partial_leaves" -> "count", "mcf.zero_var_nodes" -> "count",
    "answer.scan_est_us_p50" -> "us", "answer.processed_samples" -> "count",
    "answer.sample_match_ratio" -> "ratio", "answer.skip_rate" -> "ratio", "answer.ci_ratio" -> "ratio",
    "trace.query_overhead_us" -> "us", "trace.setup_overhead_s" -> "s",
    "harness.datagen_s" -> "s", "harness.truth_s" -> "s", "harness.querygen_s" -> "s",
  )

  /** The environment a record is stamped with. */
  def stamp(spark: SparkSession, args: Args, w: Workload): Json.Obj = Json.obj(
    "workload" -> w.name, "seed" -> args.seed, "sf" -> w.sf, "trace" -> args.trace,
    "git_sha" -> args.sha, "source_hash" -> args.sourceHash,
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "spark_master" -> spark.sparkContext.master,
    "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
    "spark_version" -> spark.version,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "heap_max_mb" -> Runtime.getRuntime.maxMemory() / 1048576L,
    "seconds" -> args.seconds,
  )

  /** Prints every metric by name and unit, writes the record, and prints the
    * result line. Returns whether every operation passed.
    */
  def report(args: Args, w: Workload, failures: Metrics.Failures, endToEnd: Map[String, Double],
             layer: Seq[(String, Double)], info: Json.Obj, stamp: Json.Obj): Boolean = {
    val ordered = Seq("setup_s", "query_p50_us", "query_p99_us", "median_re", "ci_coverage", "storage_mb")
      .filter(endToEnd.contains).map(k => k -> endToEnd(k))
    for ((k, v) <- ordered ++ layer) println(f"$k%-28s $v%.6g ${units(k)}")
    println(f"${"failed_frac"}%-28s ${failures.fraction}%.6g ratio (${failures.failed} of ${failures.attempted})")
    failures.examples.foreach(e => println(s"FAILED $e"))
    val metrics = (if (args.trace) layer else ordered).map { case (k, v) =>
      k -> Json.obj("value" -> v, "unit" -> units(k))
    }
    val correct = failures.failed == 0 && metrics.nonEmpty
    val record = Json.obj(
      "stamp" -> stamp,
      "end_to_end" -> Json.Obj(ordered.map { case (k, v) => k -> Json.obj("value" -> v, "unit" -> units(k)) }),
      "per_layer" -> Json.Obj(layer.map { case (k, v) => k -> Json.obj("value" -> v, "unit" -> units(k)) }),
      "failures" -> failures.examples,
      "info" -> info,
    )
    val pw = new PrintWriter(new File(args.out, s"BENCH_${w.name}_seed${args.seed}_trace${if (args.trace) 1 else 0}.json"))
    try pw.println(Json.render(record)) finally pw.close()
    println(Json.render(Json.obj("correct" -> correct, "attempted" -> failures.attempted,
      "failed" -> failures.failed, "metrics" -> Json.Obj(metrics))))
    correct
  }
}
