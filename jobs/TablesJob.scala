package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing one of the paper's Tables 1–3, chosen
  * by the first argument (`1`, `2` or `3`), and printing its measured rows
  * next to the published ones. Tunables via env: REPRO_SF, REPRO_QUERIES,
  * REPRO_SEED.
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    val table: SparkSession => String = args.headOption match {
      case Some("1") => Tables.table1(_)._2
      case Some("2") => Tables.table2(_)._2
      case Some("3") => Tables.table3(_)._2
      case _         => throw new IllegalArgumentException("usage: TablesJob <1|2|3>")
    }
    val spark = SparkSession.builder.appName(s"pass-table${args(0)}")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(table(spark))
    finally spark.stop()
  }
}
