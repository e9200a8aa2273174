package repro.jobs

import org.apache.spark.sql.SparkSession

/** One paper shape claim, checked on a job's table rows. */
final case class Claim(name: String, ok: Boolean, detail: String)

/** Shared SparkSession factory and claim report for the `jobs/` entrypoints.
  * The test harness (`SparkSpec`) builds its session here too, so jobs and
  * tests run one configuration. The master comes from `SPARK_MASTER`
  * (default `local[*]`), a deployment setting; `spark.sql.shuffle.partitions`
  * is fixed at 64.
  */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 64)
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
