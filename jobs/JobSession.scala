package repro.jobs

import org.apache.spark.sql.SparkSession

/** One paper shape claim, checked on a job's table rows. */
final case class Claim(name: String, ok: Boolean, detail: String)

/** Shared SparkSession factory and claim report for the `jobs/` entrypoints.
  * Honors the same environment knobs as the test harness so spark-submit runs
  * and `sbt test` exercise identical configurations.
  */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def intArg(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default

  /** Runs `table` on a fresh session, which prints its table and returns its
    * claims; after `spark.stop()` prints one `claim <name> ok|FAIL <detail>`
    * line per claim and exits non-zero if any failed.
    */
  def run(app: String)(table: SparkSession => Seq[Claim]): Unit = {
    val spark = create(app)
    val claims = try table(spark) finally spark.stop()
    claims.foreach(c => println(s"claim ${c.name} ${if (c.ok) "ok" else "FAIL"} ${c.detail}"))
    if (claims.exists(!_.ok)) sys.exit(1)
  }
}
