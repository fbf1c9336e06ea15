package grammar.err;

public class Failure extends Exception {
    public Failure(String message) { super(message); }
}
