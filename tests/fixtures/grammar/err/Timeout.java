package grammar.err;

public final class Timeout extends Failure {
    private final long millis;

    public Timeout(long millis) throws IllegalArgumentException {
        super("timeout");
        if (millis < 0) { throw new IllegalArgumentException("negative"); }
        this.millis = millis;
    }
}
